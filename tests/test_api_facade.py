"""The stable-API facade: exports, removed 1.x aliases, surface snapshot."""

from pathlib import Path

import pytest

import repro
import repro.api as api

SNAPSHOT = Path(__file__).parent / "data" / "public_api.txt"


def current_surface() -> list[str]:
    """The live public surface in the snapshot file's line format."""
    lines = sorted(f"repro:{n}" for n in repro.__all__)
    lines += sorted(f"repro.api:{n}" for n in api.__all__)
    return lines


class TestFacadeExports:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_all_is_sorted_within_sections(self):
        # names are grouped by layer; no duplicates overall
        assert len(api.__all__) == len(set(api.__all__))

    def test_facade_objects_are_the_canonical_ones(self):
        from repro.experiments.registry import run
        from repro.interference.receiver import graph_interference
        from repro.topologies import build

        assert api.graph_interference is graph_interference
        assert api.build_topology is build
        assert api.run_experiment is run
        assert api.obs is repro.obs

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name


class TestDeprecationShim:
    """2.0.0 removed the 1.x aliases; the module has no shim left."""

    def test_unknown_attribute_raises_attributeerror(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            api.nope

    @pytest.mark.parametrize("old", ["build", "run"])
    def test_removed_alias_raises_attributeerror(self, old):
        with pytest.raises(AttributeError, match=f"no attribute '{old}'"):
            getattr(api, old)
        assert old not in dir(api)

    def test_version_is_3(self):
        assert repro.__version__ == "3.0.0"


class TestPublicApiSnapshot:
    """CI gate: accidental surface changes fail; deliberate ones update
    ``tests/data/public_api.txt`` in the same commit (see docs/API.md)."""

    def test_snapshot_file_exists(self):
        assert SNAPSHOT.is_file(), (
            "tests/data/public_api.txt is missing; regenerate it from "
            "tests/test_api_facade.py::current_surface"
        )

    def test_surface_matches_snapshot(self):
        recorded = SNAPSHOT.read_text().splitlines()
        live = current_surface()
        added = sorted(set(live) - set(recorded))
        removed = sorted(set(recorded) - set(live))
        assert live == recorded, (
            "public API surface changed.\n"
            f"  added:   {added}\n"
            f"  removed: {removed}\n"
            "If intentional, update tests/data/public_api.txt in the same "
            "commit (python -c \"from tests.test_api_facade import "
            "current_surface; print('\\n'.join(current_surface()))\") and "
            "follow the deprecation policy in docs/API.md."
        )

    def test_snapshot_has_no_duplicates(self):
        recorded = SNAPSHOT.read_text().splitlines()
        assert len(recorded) == len(set(recorded))
