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
code 2 there.  The bench files are only read.

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


def _inputs():
    for name in BENCH_FILES:
        data = json.loads((ROOT / "bench" / "data" / (name + ".json"))
                          .read_text(encoding="utf-8"))
        for item in data["inputs"]:
            yield item["id"], item["text"]


def _replay(command: str, text: str) -> dict:
    argv = [text if a is None else a for a in COMMANDS[command]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit_code": code,
            "stdout_sha256": hashlib.sha256(
                out.getvalue().encode("utf-8")).hexdigest()}


CASES = [(ident, text, command) for ident, text in _inputs()
         for command in COMMANDS]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_every_input_is_pinned(pinned):
    assert sorted(pinned) == sorted({ident for ident, _, _ in CASES})


@pytest.mark.parametrize("ident,text,command", CASES,
                         ids=["%s-%s" % (i, c) for i, _, c in CASES])
def test_cli_output_matches_pinned_hash(pinned, ident, text, command):
    assert _replay(command, text) == pinned[ident][command], (
        "%s: %s %r changed its output" % (ident, command, text))


if __name__ == "__main__":
    table = {}
    for ident, text, command in CASES:
        table.setdefault(ident, {})[command] = _replay(command, text)
    PINNED.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
