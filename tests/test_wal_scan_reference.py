"""Differential suite: ``scan_wal`` against a frozen record-at-a-time scan.

``scan_wal`` used to verify and ``json.loads`` one frame at a time. It
now verifies every frame in one loop and decodes the verified payloads
in one pass over the segment's text, with ``json.loads`` on a single
payload only where that pass cannot vouch for it. ``ref_scan_wal``
below is the old scan, with the helpers it called, kept as it was:
inline, test-only.

Both must agree on every input:

- the same :class:`WalScan` (``records``, ``valid_bytes``,
  ``torn_tail``, ``torn_bytes``);
- the same :class:`WalCorruption` (``reason``, ``record_index``,
  ``last_good_seq``, ``offset``, ``seq``), or the same other exception.

The corpus covers clean, empty and missing files, both torn-tail shapes
and a half-written header, flipped payload bytes and a corrupt
same-length final frame, garbage lines and bad length fields, legacy
dict records, payloads that verify but are not JSON, whitespace around a
payload, non-ASCII and non-UTF-8 payloads, and adjacent payloads that
are each invalid but would join into valid JSON. Every byte offset of a
small log is also cut and flipped.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.stream import (
    DurableStreamEngine,
    StreamConfig,
    WalCorruption,
    random_stream_events,
    scan_wal,
)
from repro.stream.wal import WalScan, list_segments

# -- frozen reference ----------------------------------------------------------

_SHA_HEX_LEN = 64


def _ref_record_seq(rec) -> int:
    return int(rec[0]) if isinstance(rec, list) else int(rec["seq"])


def _ref_last_seq(records) -> int:
    return _ref_record_seq(records[-1]) if records else 0


def ref_scan_wal(path) -> WalScan:
    """The record-at-a-time scan: verify a frame, ``json.loads`` it, go
    on to the next."""
    path = Path(path)
    scan = WalScan(path=path)
    if not path.exists():
        return scan
    data = path.read_bytes()
    size = len(data)
    offset = 0
    index = 0
    while offset < size:
        nl = data.find(b"\n", offset)
        if nl == -1:
            scan.torn_tail = True
            scan.torn_bytes = size - offset
            break
        line = data[offset:nl]
        failure = _ref_check_frame(line)
        if failure is not None:
            if nl == size - 1 and _ref_looks_truncated(line):
                scan.torn_tail = True
                scan.torn_bytes = size - offset
                break
            raise WalCorruption(
                failure,
                record_index=index,
                last_good_seq=_ref_last_seq(scan.records),
                offset=offset,
                seq=_ref_seq_hint(line),
            )
        payload = line[line.index(b" ", line.index(b" ") + 1) + 1 :]
        try:
            record = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise WalCorruption(
                f"payload verifies but is not JSON: {exc}",
                record_index=index,
                last_good_seq=_ref_last_seq(scan.records),
                offset=offset,
            ) from exc
        scan.records.append(record)
        index += 1
        offset = nl + 1
        scan.valid_bytes = offset
    return scan


def _ref_check_frame(line: bytes) -> str | None:
    sp1 = line.find(b" ")
    if sp1 <= 0:
        return "missing length field"
    try:
        length = int(line[:sp1])
    except ValueError:
        return "length field is not an integer"
    sp2 = sp1 + 1 + _SHA_HEX_LEN
    if len(line) <= sp2 or line[sp2 : sp2 + 1] != b" ":
        return "missing or malformed digest field"
    digest = line[sp1 + 1 : sp2]
    payload = line[sp2 + 1 :]
    if len(payload) != length:
        return f"payload is {len(payload)} bytes, header declares {length}"
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        return "checksum mismatch"
    return None


def _ref_looks_truncated(line: bytes) -> bool:
    sp1 = line.find(b" ")
    if sp1 <= 0:
        return True
    try:
        length = int(line[:sp1])
    except ValueError:
        return False
    return len(line) - (sp1 + 1 + _SHA_HEX_LEN + 1) < length


def _ref_seq_hint(line: bytes) -> int | None:
    try:
        sp1 = line.index(b" ")
        payload = line[sp1 + 1 + _SHA_HEX_LEN + 1 :]
        rec = json.loads(payload)
        seq = rec[0] if isinstance(rec, list) else rec.get("seq")
        return int(seq) if isinstance(seq, int) else None
    except Exception:
        return None


# -- helpers -------------------------------------------------------------------


def frame(payload: bytes) -> bytes:
    """One WAL line around raw payload bytes (any bytes, not only JSON)."""
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return b"%d %s %s\n" % (len(payload), digest, payload)


def rows(n: int, first: int = 1) -> list[bytes]:
    """Row-form payloads as the durable engine writes them."""
    out = []
    for seq in range(first, first + n):
        if seq % 3 == 0:
            out.append(b'[%d,"leave",%d]' % (seq, seq - 1))
        elif seq % 3 == 1:
            out.append(b'[%d,"join",%d,%r,%r,0.5]' % (seq, seq, seq * 0.1, -seq / 7))
        else:
            out.append(b'[%d,"move",%d,1e-300,2.5]' % (seq, seq - 1))
    return out


def outcome(scan_fn, path):
    """Everything a scan reports, or everything its exception carries."""
    try:
        scan = scan_fn(path)
    except WalCorruption as exc:
        return (
            "corruption",
            exc.reason,
            exc.record_index,
            exc.last_good_seq,
            exc.offset,
            exc.seq,
            str(exc),
        )
    except Exception as exc:  # e.g. UnicodeDecodeError, as the old scan raised
        return ("error", type(exc), str(exc))
    return ("scan", scan.records, scan.valid_bytes, scan.torn_tail, scan.torn_bytes)


def assert_same(path):
    want = outcome(ref_scan_wal, path)
    got = outcome(scan_wal, path)
    assert got == want
    return got


def write(tmp_path, data: bytes, name="wal.jsonl") -> Path:
    path = tmp_path / name
    path.write_bytes(data)
    return path


# -- corpus --------------------------------------------------------------------

CLEAN = b"".join(frame(p) for p in rows(12))
LAST = frame(rows(1, 12)[0])
SMALL = b"".join(frame(p) for p in rows(3))

#: (name, file bytes): each case runs through both scans
CASES = {
    "clean": CLEAN,
    "empty": b"",
    "single": frame(b"[1,\"join\",0,0.0,0.0,1.0]"),
    "torn_no_newline": CLEAN + frame(rows(1, 13)[0])[:-9],
    "torn_keeping_newline": CLEAN + frame(rows(1, 13)[0])[:-12] + b"\n",
    "torn_only_frame": frame(b"[1,\"leave\",3]")[:20],
    "half_header": CLEAN + b"4",
    "half_header_newline": CLEAN + b"41 0123abcd\n",
    "half_digest_newline": CLEAN + frame(b"[13,\"leave\",2]")[:30] + b"\n",
    "flipped_payload_byte": CLEAN.replace(b'"leave",5]', b'"leave",7]'),
    "corrupt_same_length_final": CLEAN[: -len(LAST)]
    + LAST.replace(b'"leave",11]', b'"leave",19]'),
    "garbage_line": frame(rows(1)[0]) + b"hello world\n" + frame(rows(1, 2)[0]),
    "garbage_final_line": CLEAN + b"not a frame at all\n",
    "no_space_line": CLEAN + b"xyz\n" + frame(b"[13]"),
    "bad_length_field": frame(rows(1)[0])
    + frame(rows(1, 2)[0]).replace(b"%d " % len(rows(1, 2)[0]), b"x9 ", 1),
    "length_mismatch": frame(rows(1)[0])
    + frame(b"[2,1]").replace(b"5 ", b"7 ", 1)
    + frame(b"[3,\"leave\",2]"),
    "length_plus_sign": frame(rows(1)[0]) + b"+" + frame(rows(1, 2)[0]),
    "legacy_dict_records": b"".join(
        frame(json.dumps({"seq": s, "ev": {"kind": "join", "node": s}}).encode())
        for s in range(1, 6)
    ),
    "legacy_dict_spaced": frame(b'{"seq": 1, "ev": {"kind": "leave", "node": 0}}'),
    "not_json_first": frame(b"this is not json") + frame(rows(1, 2)[0]),
    "not_json_middle": b"".join(frame(p) for p in rows(4))
    + frame(b"[5,\"join\",")
    + frame(rows(1, 6)[0]),
    "not_json_last": CLEAN + frame(b"}{"),
    "not_json_then_torn": frame(rows(1)[0]) + frame(b"nope") + b"12 ab",
    "not_json_then_corrupt": frame(rows(1)[0]) + frame(b"nope") + b"junk\n",
    "empty_payload": frame(rows(1)[0]) + frame(b""),
    "trailing_data": frame(rows(1)[0]) + frame(b"[2,\"leave\",1] x"),
    "two_values": frame(b"[1],[2]"),
    "split_array_open": frame(b"[[3]") + frame(b"[4]]"),
    "split_array_close": frame(b"[1,") + frame(b"2]"),
    "split_string": frame(b'["a') + frame(b'b"]'),
    "split_object": frame(b'{"seq":1,') + frame(b'"ev":{"kind":"leave","node":0}}'),
    "split_number": frame(b"[1,") + frame(b"2") + frame(b"]"),
    "leading_space": frame(b' [1,"leave",0]') + frame(b'[2,"leave",1]'),
    "trailing_space": frame(b'[1,"leave",0] ') + frame(b'[2,"leave",1]'),
    "surrounding_whitespace": frame(b'\t [1,"leave",0]\r ') + frame(rows(1, 2)[0]),
    "only_whitespace": frame(b"   "),
    "bare_number": frame(b"7") + frame(b"12"),
    "bare_exponent_tail": frame(b"1e") + frame(b"5"),
    "bare_literals": frame(b"[1,true,null,false]") + frame(b'[2,"leave",NaN]'),
    "infinity": frame(b"[1,\"join\",0,Infinity,-Infinity,1.0]"),
    "non_ascii_utf8": frame('[1,"jöin",0,1.0,2.0,0.5]'.encode()) + frame(rows(1, 2)[0]),
    "non_ascii_dict": frame(json.dumps({"seq": 1, "ev": "ü"}, ensure_ascii=False).encode()),
    "non_ascii_escaped": frame(b'[1,"j\\u00f6in",0]'),
    "non_ascii_spaced": frame(' [1,"ü"] '.encode()),
    "utf8_bom": frame(b"\xef\xbb\xbf[1,\"leave\",0]"),
    "utf16_payload": frame('[1,"leave",0]'.encode("utf-16")),
    "utf16le_no_bom": frame('[1,"leave",0]'.encode("utf-16-le")),
    "utf32_payload": frame('[1,"leave",0]'.encode("utf-32")),
    "non_utf8_byte": frame(rows(1)[0]) + frame(b'[2,"\xff"]'),
    "latin1_payload": frame('[1,"café"]'.encode("latin-1")),
    "encoded_surrogate": frame(b'[1,"\xed\xa0\x80"]'),
    "nul_byte": frame(rows(1)[0]) + frame(b'[2,"leave",1]\x00'),
    "nul_first": frame(b'\x00[2,"leave",1]'),
    "control_char_in_string": frame(b'[1,"a\tb"]'),
    "deep_nesting": frame(b"[" * 50 + b"1" + b"]" * 50),
    "string_record": frame(b'"just a string"') + frame(rows(1, 2)[0]) + b"garbage\n",
    "int_record_then_corrupt": frame(b"5") + b"1 xx\n",
    "empty_list_then_corrupt": frame(b"[]") + b"garbage\n",
    "crlf_line_ending": frame(rows(1)[0])[:-1] + b"\r\n",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_corpus_case(tmp_path, name):
    assert_same(write(tmp_path, CASES[name]))


def test_missing_file(tmp_path):
    assert assert_same(tmp_path / "nope.jsonl")[0] == "scan"


def test_corpus_covers_every_outcome(tmp_path):
    """The corpus exercises scans, torn tails, corruption and a non-JSON
    payload, so a scan that raised or accepted everything would fail."""
    kinds = set()
    for name, data in CASES.items():
        got = outcome(scan_wal, write(tmp_path, data, f"{name}.jsonl"))
        if got[0] == "scan":
            kinds.add("torn" if got[3] else "scan")
        elif got[0] == "corruption":
            kinds.add("not_json" if "not JSON" in got[1] else "corruption")
        else:
            kinds.add("error")
    assert kinds == {"scan", "torn", "corruption", "not_json", "error"}


def test_adjacent_payloads_that_join_into_json_still_raise(tmp_path):
    for name in ("two_values", "split_array_open", "split_array_close",
                 "split_string", "split_object", "split_number"):
        got = assert_same(write(tmp_path, CASES[name], f"{name}.jsonl"))
        assert got[0] == "corruption" and "not JSON" in got[1], name
        assert got[2] == 0  # the first payload already fails on its own


def test_non_json_payload_names_the_record(tmp_path):
    got = assert_same(write(tmp_path, CASES["not_json_middle"]))
    assert got[0] == "corruption"
    assert got[1].startswith("payload verifies but is not JSON")
    assert got[2:5] == (4, 4, len(b"".join(frame(p) for p in rows(4))))


def test_every_truncation_point(tmp_path):
    for cut in range(len(CLEAN) + 1):
        assert_same(write(tmp_path, CLEAN[:cut]))


def test_every_truncation_point_with_newline(tmp_path):
    for cut in range(len(SMALL)):
        assert_same(write(tmp_path, SMALL[:cut] + b"\n"))


def test_every_single_byte_flip(tmp_path):
    for pos in range(len(SMALL)):
        for new in (SMALL[pos] ^ 0x01, ord(" "), ord("\n"), 0xC3):
            assert_same(write(tmp_path, SMALL[:pos] + bytes([new]) + SMALL[pos + 1 :]))


@pytest.mark.parametrize("family", ["uniform", "clustered", "mobile"])
def test_engine_written_segments(tmp_path, family):
    """Segments the durable engine wrote: several rotations, then a
    torn tail at a few cut points of the newest segment."""
    config = StreamConfig(
        capacity=300, r_max=1.0, fsync=False, segment_bytes=4096,
        snapshot_every=0,
    )
    events = random_stream_events(
        600, capacity=300, side=8.0, r_max=1.0, seed=5, family=family
    )
    directory = tmp_path / "s"
    eng = DurableStreamEngine.create(directory, config)
    eng.apply_batch(events)
    eng.close()
    segments = list_segments(directory)
    assert len(segments) > 3
    for seg in segments:
        assert assert_same(seg.path)[0] == "scan"
    newest = segments[-1].path.read_bytes()
    for cut in (1, 17, len(newest) // 2, len(newest) - 1):
        got = assert_same(write(tmp_path, newest[:cut], f"cut{cut}.jsonl"))
        assert got[0] == "scan" and got[3]
