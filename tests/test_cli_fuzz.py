"""Bounded property test of the CLI's exit-code contract over drawn argv.

Every command must end with exit code 0, 2, 3 or 4, print no traceback,
report a failure as exactly one ``E_*`` line on stderr (or, for the two
documented in-band failures, an ``E_DOMAIN`` sweep row or an audit
``RESULT FAIL``), print nothing on stdout when it reports a failure on
stderr, and print only finite numbers.  Grids stay small so the
whole test costs a second or two.
"""

import contextlib
import io
import re

from hypothesis import example, given, settings, strategies as st

from redeos.cli import main

MATERIALS = st.sampled_from(["NC-13", "RDX", "HMX", "NG", "TNT"])
MODELS = st.sampled_from(["na", "vo1", "vo1cvt"])
SPECIAL = [0.0, -0.0, 1e-300, 5e-324, -1.0, 1.0, 100.0, 673.9, 700.0, 3275.0, 1e15, 1e300, 1.7e308,
           float("inf"), float("-inf"), float("nan")]
NUMBERS = st.one_of(st.sampled_from(SPECIAL), st.floats(min_value=1e-3, max_value=1e4),
                    st.floats(allow_nan=True, allow_infinity=True))
STEPS = st.one_of(NUMBERS, st.floats(min_value=1.0, max_value=500.0))


def grid(max_points):
    """LO:HI:STEP strings of at most ``max_points`` points, or malformed ones."""
    made = st.builds(lambda lo, step, n: f"{lo!r}:{lo + (n - 1) * step!r}:{step!r}",
                     NUMBERS, STEPS, st.integers(1, max_points))
    return st.one_of(made, st.sampled_from(["1:2", "a:b:c", "5:1:1", "1:2:0", "0:1e9:1e-3", "::"]))


state_argv = st.builds(
    lambda mat, model, pair, x, y: ["state", mat, f"--model={model}", f"--{pair[0]}={x!r}", f"--{pair[1]}={y!r}"],
    MATERIALS, MODELS, st.sampled_from([("rho", "T"), ("P", "T"), ("rho", "e"), ("rho", "P")]), NUMBERS, NUMBERS)
sweep_argv = st.builds(lambda mat, model, rho: ["sweep", mat, f"--model={model}", f"--rho={rho}"],
                       MATERIALS, MODELS, grid(50))
audit_argv = st.builds(lambda mat, model, rho, T: ["audit", mat, f"--model={model}", f"--rho={rho}", f"--T={T}"],
                       MATERIALS, MODELS, grid(4), grid(4))
fraction = st.one_of(NUMBERS.map(repr), st.sampled_from(["abc", "", "0.5"]))
mix_spec = st.one_of(
    st.builds(lambda a, b, x, y: f"{a}={x},{b}={y}", MATERIALS, MATERIALS, fraction, fraction),
    st.builds(lambda a, b: f"{a}+{b}", MATERIALS, MATERIALS))
mix_argv = st.builds(
    lambda spec, model, rhos, sweep, declared: (
        ["mix-sweep", spec, f"--model={model}", "--rho=" + ",".join(repr(r) for r in rhos)]
        + ([f"--fraction-sweep={sweep}"] if sweep else []) + (["--same-oxygen-balance"] if declared else [])),
    mix_spec, st.sampled_from(["mna", "mvo1"]), st.lists(NUMBERS, min_size=1, max_size=3),
    st.one_of(st.none(), grid(6)), st.booleans())

ARGV = st.one_of(state_argv, sweep_argv, audit_argv, mix_argv)
NUMBER_TOKEN = re.compile(r"[^\s,=]+")


@settings(max_examples=200)
@given(ARGV)
# found only at 4,000 examples: 10 digits once printed a value that reads back as inf
@example(["sweep", "NC-13", "--model=na", "--rho=1.7976931345e+308:1.7976931345e+308:1e-300"])
# a row refused after one that evaluates: the header and the first row once printed
@example(["sweep", "NC-13", "--model=vo1", "--rho=100:1e200:1e199"])
@example(["mix-sweep", "NC-13=0.5,RDX=0.5", "--model=mna", "--rho=100,700", "--same-oxygen-balance"])
def test_cli_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4)
    if err:  # one print after the last evaluation, so a refusal prints nothing
        assert code != 0 and err.count("\n") == 1 and err.startswith("E_"), err
        assert out == "", out
    elif code != 0:
        assert (argv[0], code) in (("sweep", 4), ("audit", 3)), out
        assert ",E_DOMAIN," in out or out.endswith("RESULT FAIL\n"), out
    for token in NUMBER_TOKEN.findall(out):
        try:
            value = float(token)
        except ValueError:
            continue
        assert abs(value) < float("inf"), (token, out)
