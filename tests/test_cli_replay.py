"""CLI replay: byte-exact output on every frozen bench input.

``data/cli_replay_sha256.json`` holds, for each input of
``bench/data/{corpus,controls,rational}.json`` and each of three commands,
the exit code and the sha256 of stdout.  The commands are
``recover ODE --json-only --dump-detsys --dump-involutive``,
``symmetries ODE --json-only`` and ``symmetries ODE --json-only
--max-order 10``, so the determining and involutive systems, the structure
constants, the derived algebra, the certificate and the recovered class are
all pinned, the last at a deep truncation order, where the series stage
does the most work.  An input whose minimum order exceeds 10 pins its exit
code 2 there.

It also pins ``oracle --poly P --psi PSI --phi PHI --json-only`` for the 14
pairs of ``bench/data/oracle.json`` (ids ``oracle-NN``) and for every
(source, transformation) pair of ``pushforward.SHIPPED_PAIRS`` and
``corpus_sources()`` (ids ``shipped-NN``, transformations outermost);
a pair whose image leaves the rational class pins exit code 2.  The bench
files are only read.

After a change that is meant to alter an exact answer, rewrite the file
with ``PYTHONPATH=src python tests/test_cli_replay.py`` and review the diff.
"""
import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from lieode.cli import main
from lieode.pushforward import SHIPPED_PAIRS, corpus_sources

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = ("corpus", "controls", "rational")
COMMANDS = {
    "recover": ["recover", None, "--json-only", "--dump-detsys",
                "--dump-involutive"],
    "symmetries": ["symmetries", None, "--json-only"],
    "symmetries-deep": ["symmetries", None, "--json-only", "--max-order",
                        "10"],
}
PINNED = pathlib.Path(__file__).parent / "data" / "cli_replay_sha256.json"


def _bench_inputs(name: str) -> list:
    return json.loads((ROOT / "bench" / "data" / (name + ".json"))
                      .read_text(encoding="utf-8"))["inputs"]


def _oracle_argv(coeffs, psi: str, phi: str) -> list:
    return ["oracle", "--poly", ",".join(map(str, coeffs)), "--psi", psi,
            "--phi", phi, "--json-only"]


def _cases():
    """(id, command, argv) for every pinned command line."""
    for name in BENCH_FILES:
        for item in _bench_inputs(name):
            for command, argv in COMMANDS.items():
                yield (item["id"], command,
                       [item["text"] if a is None else a for a in argv])
    for item in _bench_inputs("oracle"):
        yield (item["id"], "oracle",
               _oracle_argv(item["source_poly"] + ["1"], item["psi"],
                            item["phi"]))
    pairs = [(T, p) for T in SHIPPED_PAIRS for p in corpus_sources()]
    for k, ((psi, phi), p) in enumerate(pairs, 1):
        yield ("shipped-%02d" % k, "oracle",
               _oracle_argv(p.full_coeffs(), psi, phi))


def _replay(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit_code": code,
            "stdout_sha256": hashlib.sha256(
                out.getvalue().encode("utf-8")).hexdigest()}


CASES = list(_cases())


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_every_input_is_pinned(pinned):
    assert sorted(pinned) == sorted({ident for ident, _, _ in CASES})


@pytest.mark.parametrize("ident,command,argv", CASES,
                         ids=["%s-%s" % (i, c) for i, c, _ in CASES])
def test_cli_output_matches_pinned_hash(pinned, ident, command, argv):
    assert _replay(argv) == pinned[ident][command], (
        "%s: %r changed its output" % (ident, argv))


if __name__ == "__main__":
    table = {}
    for ident, command, argv in CASES:
        table.setdefault(ident, {})[command] = _replay(argv)
    PINNED.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
