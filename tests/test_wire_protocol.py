"""The `exec:` wire protocol's codec: the bytes each end writes, the lines
each end accepts, and how each end fails on a peer that misbehaves."""

import io
import select
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qecbound.compiler import compile_to_dem, write_dem
from qecbound.decoders import (
    ExternalDecoder,
    MlDecoder,
    ProtocolError,
    build_ml_decoder,
    connect_external_decoder,
    serve,
)
from qecbound.errorspace import bits_to_str
from qecbound.frontend import parse_program


def _payload(chunk, n_det: int) -> str:
    """A `DECODE k` chunk as a line-at-a-time encoder writes it."""
    return "\n".join([f"DECODE {len(chunk)}", *(bits_to_str(s, n_det) for s in chunk)]) + "\n"


def _error_in_thread(fn, proc, timeout: float):
    """The exception fn() raises in a worker thread, or None.  If fn is
    still running after `timeout` seconds, the child is killed and the
    test fails."""
    box = {}

    def run():
        try:
            fn()
        except Exception as exc:  # handed to the test thread
            box["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=timeout)
    if worker.is_alive():
        proc.kill()
        pytest.fail(f"no answer within {timeout} s")
    return box.get("error")


class _Recorder(ExternalDecoder):
    """The client without a child: it records what it writes and reads
    each reply line from `replies`."""

    def __post_init__(self) -> None:
        self.sent: list[str] = []
        self.replies: list[str] = []

    def _send(self, text: str) -> None:
        self.sent.append(text)

    def _recv(self) -> str:
        return self.replies.pop(0)


@st.composite
def _codec_cases(draw):
    n_det = draw(st.sampled_from([0, 1, 63, 64, 65, 130, 300]))
    n_obs = draw(st.sampled_from([0, 1, 64, 100]))
    full = (1 << n_det) - 1
    batch = [0, full, *draw(st.lists(st.integers(0, full), max_size=90))]
    batch += draw(st.lists(st.sampled_from(batch), max_size=10))
    batch = draw(st.permutations(batch))
    table = {s: draw(st.integers(0, (1 << n_obs) - 1)) for s in batch}
    return n_det, n_obs, batch, table


@given(_codec_cases())
@settings(max_examples=150, deadline=None)
def test_client_writes_the_line_encoders_bytes_and_parses_replies(case):
    """At word edges of both widths: every chunk the client writes equals
    the line-at-a-time encoding, and the replies parse to the predictions
    they encode."""
    n_det, n_obs, batch, table = case
    client = _Recorder("unused", n_det, n_obs)
    client.replies = [bits_to_str(table[s], n_obs) for s in batch]
    assert client.decode_batch(batch) == [table[s] for s in batch]
    step = max(1, select.PIPE_BUF // (n_obs + 1))
    chunks = [batch[a:a + step] for a in range(0, len(batch), step)]
    assert client.sent == [_payload(c, n_det) for c in chunks]
    assert not client.replies


@given(_codec_cases())
@settings(max_examples=150, deadline=None)
def test_serve_answers_decode_for_every_syndrome(case):
    n_det, n_obs, batch, table = case
    dec = MlDecoder(n_det, n_obs, {s: o for s, o in table.items() if s % 3})
    text = f"INIT {n_det} {n_obs}\n" + _payload(batch, n_det) + _payload(batch[:1], n_det)
    out = io.StringIO()
    serve(dec, io.StringIO(text + "QUIT\n"), out)
    assert out.getvalue() == "READY\n" + "".join(
        bits_to_str(dec.decode(s), n_obs) + "\n" for s in [*batch, *batch[:1]])


def test_out_of_range_syndromes_are_refused_before_anything_is_written(
        repetition_program_text, tmp_path):
    """A syndrome outside [0, 2^n_det) has no line of n_det bits: 2^n_det
    would be sent as 0 and -1 as all ones.  The batch is refused whole,
    and the decoder then answers a valid batch."""
    model = compile_to_dem(parse_program(repetition_program_text))
    dem_path = tmp_path / "model.dem"
    dem_path.write_text(write_dem(model))
    local = build_ml_decoder(model, model.concrete_probabilities())
    remote = connect_external_decoder(f"{sys.executable} -m qecbound.cli serve-ml {dem_path}",
                                      model.n_detectors, model.n_observables)
    try:
        for bad in (1 << model.n_detectors, -1):
            with pytest.raises(ValueError, match=f"syndrome {bad} is outside"):
                remote.decode_batch([0, 1, bad, 1 << 64, 2])
        assert remote.decode_batch([0, 1, 2, 3]) == local.decode_batch([0, 1, 2, 3])
    finally:
        remote.close()


_STUB_HEAD = (
    "import sys\n"
    "sys.stdin.readline()\n"
    "print('READY', flush=True)\n"
    "for line in sys.stdin:\n"
    "    if not line.startswith('DECODE'):\n"
    "        break\n"
    "    k = int(line.split()[1])\n"
    "    syndromes = [sys.stdin.readline() for _ in range(k)]\n"
)


@pytest.mark.parametrize("bad", ["00", "", "2", "０"])
def test_a_malformed_reply_mid_chunk_is_named(tmp_path, bad):
    """The 3rd of 5 replies has the wrong length, a '2', or a non-ASCII
    digit: that line is named, and close() still reaps the child."""
    stub = tmp_path / "stub.py"
    stub.write_text(_STUB_HEAD + (
        f"    replies = ['1'] * k\n"
        f"    replies[2] = {bad!r}\n"
        f"    print('\\n'.join(replies), flush=True)\n"), encoding="utf-8")
    remote = connect_external_decoder(f"{sys.executable} {stub}", 2, 1)
    try:
        error = _error_in_thread(lambda: remote.decode_batch([0, 1, 2, 3, 0]), remote._proc, 10)
        assert isinstance(error, ProtocolError)
        assert str(error) == f"malformed decoder reply {bad!r}"
    finally:
        remote.close()
    assert remote._proc.returncode is not None
    assert remote._proc.stdin.closed and remote._proc.stdout.closed


def test_a_malformed_reply_is_named_before_the_decoder_exits(tmp_path):
    """A bad 2nd reply, then the decoder exits: the bad line is named,
    not the exit."""
    stub = tmp_path / "stub.py"
    stub.write_text(_STUB_HEAD + "    print('1\\n2', flush=True)\n    break\n")
    remote = connect_external_decoder(f"{sys.executable} {stub}", 2, 1)
    try:
        error = _error_in_thread(lambda: remote.decode_batch([0, 1, 2, 3, 0]), remote._proc, 10)
        assert isinstance(error, ProtocolError)
        assert str(error) == "malformed decoder reply '2'"
    finally:
        remote.close()


def test_a_decoder_that_exits_mid_chunk_closed_its_output(tmp_path):
    """The decoder answers 2 of 5 syndromes, then exits; close() still
    reaps it."""
    stub = tmp_path / "stub.py"
    stub.write_text(_STUB_HEAD + "    print('1\\n0', flush=True)\n    break\n")
    remote = connect_external_decoder(f"{sys.executable} {stub}", 2, 1)
    try:
        error = _error_in_thread(lambda: remote.decode_batch([0, 1, 2, 3, 0]), remote._proc, 10)
        assert isinstance(error, ProtocolError)
        assert str(error) == "decoder process closed its output"
    finally:
        remote.close()
    assert remote._proc.returncode is not None
    assert remote._proc.stdin.closed and remote._proc.stdout.closed


class _EndOnce(io.StringIO):
    """Input that may be read to its end once: a read after that fails
    the test at once, instead of letting a reader loop on the end."""

    def readline(self, *args) -> str:
        line = super().readline(*args)
        if not line:
            assert not getattr(self, "ended", False), "read past the end of input"
            self.ended = True
        return line


@pytest.mark.parametrize("n_det, line", [(2, "01\n"), (0, "\n")])
def test_serve_fails_fast_when_a_huge_batch_ends_early(n_det, line):
    """`DECODE 1000000000`, one syndrome, then the end of input: serve
    raises at the missing line, without reading on or making room for the
    batch it announced."""
    stdin = _EndOnce(f"INIT {n_det} 1\nDECODE 1000000000\n{line}")
    t0 = time.monotonic()
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="ended after 1 of 1000000000 lines"):
            serve(MlDecoder(n_det, 1, {}), stdin, io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - t0 < 1
    assert peak < 1 << 20


@pytest.mark.parametrize("lines, bad", [
    (["01", "10", "0x", "11", "00"], "0x"),
    (["01", "10", "011", "11", "00"], "011"),
    (["01", "10", "0１", "11", "00"], "0１"),
    (["01", "10", "0x"], "0x"),  # named before the missing 4th line
    (["01", "10", "0x", "1"], "0x"),  # named before the short 4th line
    (["01", "10", "11", "0"], "0"),
])
def test_serve_names_the_first_malformed_syndrome(lines, bad):
    text = "INIT 2 1\nDECODE 5\n" + "".join(s + "\n" for s in lines)
    with pytest.raises(ProtocolError) as info:
        serve(MlDecoder(2, 1, {}), io.StringIO(text), io.StringIO())
    assert str(info.value) == f"malformed syndrome {bad!r}"
