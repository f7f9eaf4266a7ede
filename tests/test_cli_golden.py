"""Golden CLI runs: full stdout, stderr and exit code, byte for byte.

Covers every README example in both output formats, `--vp` on every
subcommand that takes a prime, the per-command input quirks, one
invocation per error class, and the help text at each level of the
command tree (80 columns; identical on Python 3.10 to 3.13).  The expected bytes in `cli_golden.json`
were captured from the CLI as it stood before its command table was
introduced, so any rendering drift shows here as a failure.  The two
`vp-factorial --method oracle ... --k 2` cases were re-captured when an
unused `--k` became a usage error, `prop1-table --p 3 --vp` when its
table gained the `vp(term)` column that `--vp` had silently dropped,
`verify --suite bogus` when unknown suite names moved from argparse
choices to the handler's usage error, and the two `verify --all` cases
when `brauer-model` swapped its invariant sweeps for the min-form
oracle (288 checks to 108), and the four `proof-inequalities --p 7 --r 5`
cases (text and record, with and without `--vp`) when the symbolic
certificate's provenance line came to say that its answer is proved, not
computed.  The help cases were captured later, from the CLI as it stood
before its result records were trimmed to what each route computes.
"""

import json
import pathlib

import pytest

from csatools import bounds, cli, verify
from csatools.errors import ConsistencyError

README_EXAMPLES = [
    "vp --p 3 --n 18",
    "vp-factorial --p 3 --method oracle --n 9",
    "vp-factorial --p 3 --method misc --k 2 --n 1",
    "multinomial --top 6 --parts 2,2,2",
    "segre-degree --shape 3,3,3",
    "bound general --shape 3,3,3 --index 3 --period 3",
    "bound prime-power --p 3 --k 1 --n 1",
    "bound baseline --point 2:1 --point 2:1",
    "bound improvement --p 3 --k 1 --n 1",
    "cofactor-m --p 3 --k 1 --n 2",
    "karpenko-bound --p 3 --n 3 --codim 20",
    "corestriction-cert --p 3 --r 1",
    "proof-inequalities --p 7 --r 5",
    "index-reduction --p 3 --target 1,1,2 --fiber 1,1,1 --d 2",
    "prop1 --p 5",
    "prop1-table --p 3",
    "prop2 --p 5 --d 2 --n 3",
    "verify --all",
    "verify --suite segre-degree",
]

# Inputs whose record differs from the flags as typed.
INPUT_SHAPES = [
    "vp-factorial --p 3 --method oracle --n 9 --k 2",
    "vp-factorial --p 3 --method prime-power --n 2",
    "vp-factorial --p 3 --method k-prime-power --k 2 --n 2",
    "bound general --shape 4,2,3 --index 6 --period 3",
    "bound baseline --point 3:2",
    "multinomial --top 0 --parts ",
    "verify --suite chow-laws --suite known-values",
]

VP_CASES = [
    "vp --p 3 --n 18 --vp",
    "vp --p 3 --n 5 --vp",
    "vp-factorial --p 3 --method misc --k 2 --n 1 --vp",
    "bound prime-power --p 3 --k 1 --n 1 --vp",
    "bound improvement --p 3 --k 1 --n 1 --vp",
    "cofactor-m --p 3 --k 1 --n 2 --vp",
    "karpenko-bound --p 3 --n 3 --codim 20 --vp",
    "corestriction-cert --p 3 --r 1 --vp",
    "proof-inequalities --p 7 --r 5 --vp",
    "index-reduction --p 3 --target 1,1,2 --fiber 1,1,1 --d 2 --vp",
    "prop1 --p 5 --vp",
    "prop1-table --p 3 --vp",
    "prop2 --p 5 --d 2 --n 3 --vp",
]

ERROR_CASES = [
    # exit 1: domain errors
    "vp --p 6 --n 18",
    "vp --p 3 --n 0",
    "corestriction-cert --p 2 --r 1",
    # exit 2: usage errors, from argparse and after it
    "vp-factorial --p 3 --method misc --n 1",
    "vp-factorial --p 3 --method k-prime-power --n 1",
    "multinomial --top 2 --parts 1,1 --vp",
    "segre-degree --shape 2,x",
    "bound baseline --point 2-1",
    "bound",
    "not-a-command",
    "vp --p 3",
    "vp --p x --n 1",
    "verify --suite bogus",
    "",
]

HELP_CASES = [
    "--help",
    "bound --help",
    "bound general --help",
    "vp --help",
    "verify --help",
]

CASES = [
    case + fmt
    for case in README_EXAMPLES + INPUT_SHAPES + VP_CASES
    for fmt in ("", f" --format {cli.RECORD_FORMAT}")
] + ERROR_CASES + HELP_CASES

GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))

def _argv(case: str) -> list:
    """Split on single spaces, so `--parts ` passes an empty value."""
    return case.split(" ") if case else []


@pytest.fixture(scope="module")
def suite_results():
    return {}


@pytest.fixture(autouse=True)
def _stable_run(monkeypatch, suite_results):
    """Fixed help width, and each verify selection computed once."""
    monkeypatch.setenv("COLUMNS", "80")
    real = verify.run_suites

    def cached(names=None):
        key = None if names is None else tuple(names)
        if key not in suite_results:
            suite_results[key] = real(names)
        return suite_results[key]

    monkeypatch.setattr(verify, "run_suites", cached)


def _capture(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return {"exit": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("case", CASES)
def test_golden(capsys, case):
    assert _capture(capsys, _argv(case)) == GOLDEN[case]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


def test_consistency_failure_is_exit_3(capsys, monkeypatch):
    def broken(p, k, n):
        raise ConsistencyError("forced for the golden test")

    monkeypatch.setattr(bounds, "prime_power_bound", broken)
    got = _capture(capsys, _argv("bound prime-power --p 3 --k 1 --n 1"))
    assert got == {
        "exit": 3,
        "stdout": "",
        "stderr": "internal consistency failure: forced for the golden test\n",
    }
