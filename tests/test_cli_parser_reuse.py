"""The argparse tree is built once per process, not once per command.

Building it (seven parsers, ~47 arguments, a help formatter per argument)
costs about a millisecond, a large share of an in-process grid command.
``cli.main`` builds it on its first call and reuses it; each call is
otherwise independent, so a command run after argparse and library errors
prints exactly what ``golden_cli.json`` recorded for it.
"""

import argparse
import json
import pathlib

import pytest

from redeos import cli

GOLDEN = {tuple(case["argv"]): case
          for case in json.loads(pathlib.Path(__file__).with_name("golden_cli.json").read_text())
          if "argv" in case}

STATE = ("state", "NC-13", "--model", "na", "--rho", "100", "--T", "3275")
DOMAIN = ("state", "NC-13", "--model", "na", "--rho", "700", "--T", "3000")
MIX_SWEEP = ("mix-sweep", "NC-13=0.5,RDX=0.5", "--model", "mvo1", "--rho", "100", "--same-oxygen-balance")
BAD_MODEL = ("state", "NC-13", "--model", "bogus", "--rho", "100", "--T", "3275")


@pytest.fixture
def built(monkeypatch):
    """Names of the parsers constructed from here on, starting from an empty cache."""
    names = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        names.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    yield names
    cli._build_parser.cache_clear()


def run(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return {"code": code, "stdout": captured.out, "stderr": captured.err}


def test_parser_is_built_once_across_commands(built, capsys):
    results, counts = [], []
    for argv in (STATE, BAD_MODEL, DOMAIN, MIX_SWEEP, BAD_MODEL, STATE):
        results.append(run(capsys, argv))
        counts.append(len(built))

    # the top-level parser and one per subcommand, all on the first call
    assert counts == [7] * 6
    assert built[0] == "eos"

    golden = [{key: GOLDEN[argv][key] for key in ("code", "stdout", "stderr")}
              for argv in (STATE, DOMAIN, MIX_SWEEP)]
    assert [results[0], results[2], results[3]] == golden
    assert results[2]["code"] == 4 and results[2]["stderr"].startswith("E_DOMAIN: ")
    # an argparse error exits with 2 and leaves no state behind
    assert results[1]["code"] == 2 and results[1]["stdout"] == ""
    assert "invalid choice: 'bogus'" in results[1]["stderr"]
    assert results[4] == results[1]
    assert results[5] == golden[0]
