"""Each named rejection of the library and the CLI, triggered once, with its
message matched in full; plus two value branches that no other test reaches."""

import re

import pytest

from pathcalc import (
    PartitionSequence,
    SampledPath,
    SimpleStrategy,
    black_scholes,
    builtin,
    dyadic,
    generate,
    horizontal_derivative_fd,
    identity,
    integral_payoff,
    norvaisa_qv_check,
    p_variation,
    put_payoff,
    simple_ledger,
    stack,
    stop,
    vertical_derivative_fd,
    vertical_hessian_fd,
    vovk_uniform_check,
)
from pathcalc import cli
from pathcalc.functionals import density_from_descriptor, density_matrix

SEQ = dyadic(1.0, 2)
LINE = generate({"kind": "smooth", "name": "linear"}, 0, SEQ)  # x(t) = t on 0, 1/4, ..., 1
PAIR = stack([LINE, LINE])
BS = black_scholes(0.2, 1.0)
AT_HALF = stop(generate({"kind": "smooth", "name": "linear", "offset": 1.0}, 0, SEQ), 0.5)


def _config_file(tmp, text):
    (tmp / "c.json").write_text(text)
    return cli._load_config(cli.build_parser().parse_args(["qv", "--config", str(tmp / "c.json")]))


CASES = [
    # partitions
    ("level 0 must contain at least two times", lambda tmp: PartitionSequence(1.0, [[0.0]])),
    ("at least one level is required", lambda tmp: PartitionSequence(1.0, [])),
    ("unknown partition descriptor type 'random'",
     lambda tmp: PartitionSequence.from_descriptor({"type": "random", "T": 1.0})),
    # a subnormal horizon: its half rounds to 0.0, so level 1 is [0, 0, T]
    ("level 1 is not strictly increasing", lambda tmp: dyadic(5e-324, 1)),
    # paths
    ("grid must be strictly increasing", lambda tmp: SampledPath([0.0, 1.0, 1.0], [0.0, 0.0, 0.0])),
    ("got 3 values for 2 grid times", lambda tmp: SampledPath([0.0, 1.0], [0.0, 1.0, 2.0])),
    ("all paths must share the same grid",
     lambda tmp: stack([LINE, generate({"kind": "smooth"}, 0, dyadic(1.0, 3))])),
    ("side must be 'right' or 'left', got 'middle'", lambda tmp: stop(LINE, 0.5, side="middle")),
    ("unknown smooth path name 'cubic'", lambda tmp: generate({"kind": "smooth", "name": "cubic"}, 0, SEQ)),
    ("total must be positive", lambda tmp: generate({"kind": "qv_descent", "total": 0.0}, 0, SEQ)),
    ("qv_descent needs dyadic (binary-split) levels",
     lambda tmp: generate({"kind": "qv_descent"}, 0, PartitionSequence(1.0, [[0, 1], [0, 1 / 3, 2 / 3, 1]]))),
    ("drain too large for the requested level count",
     lambda tmp: generate({"kind": "qv_descent", "drain": 1.0}, 0, SEQ)),
    # quadvar
    ("p_variation expects a scalar path", lambda tmp: p_variation(PAIR, 2.0)),
    ("norvaisa_qv_check expects a scalar path", lambda tmp: norvaisa_qv_check(PAIR, SEQ, [(0.0, 1.0)])),
    ("vovk_uniform_check expects a scalar path", lambda tmp: vovk_uniform_check(PAIR, SEQ)),
    ("the uniform form requires a nested sequence", lambda tmp: vovk_uniform_check(
        LINE, PartitionSequence(1.0, [[0, 0.5, 1], [0, 0.25, 1]], dense=False, nested=False))),
    ("bad interval [0.5, 0.25]", lambda tmp: norvaisa_qv_check(LINE, SEQ, [(0.5, 0.25)])),
    # functionals
    ("bump must be positive", lambda tmp: vertical_derivative_fd(BS, AT_HALF, bump=0.0)),
    ("bump must be positive", lambda tmp: vertical_hessian_fd(BS, AT_HALF, bump=-1.0)),
    ("step 2.0 not in (0, T - t]", lambda tmp: horizontal_derivative_fd(BS, AT_HALF, step=2.0)),
    ("index outside the path dimension", lambda tmp: identity(2, 2)),
    ("kind must be 'call' or 'put', got 'straddle'", lambda tmp: black_scholes(0.2, 1.0, "straddle")),
    ("black_scholes needs sigma and strike", lambda tmp: builtin("black_scholes", sigma=0.2)),
    ("unknown density descriptor 'lognormal'", lambda tmp: density_from_descriptor({"kind": "lognormal"})),
    # sigma^2 s^2 is one number per coordinate on a dim-2 path: numpy's "cannot reshape"
    ("density of shape (2,) is neither a number nor a 2x2 matrix for a dim-2 path",
     lambda tmp: density_matrix(density_from_descriptor({"kind": "bs", "sigma": 0.2}), 0.0, PAIR.values[1], 2)),
    # trading
    ("strategy has 3 holdings for 4 cells",
     lambda tmp: simple_ledger(SimpleStrategy.constant(2, 1.0, 3), LINE, SEQ)),
    ("rule must be 'left' or 'right'", lambda tmp: integral_payoff("middle")),
    # cli
    ("--config FILE is required", lambda tmp: cli._load_config(cli.build_parser().parse_args(["qv"]))),
    ("config must be a mapping, got [1, 2]", lambda tmp: _config_file(tmp, "[1, 2]")),
]


@pytest.mark.parametrize("message, make", CASES, ids=[message for message, _ in CASES])
def test_each_named_error_is_raised_with_its_message(tmp_path, message, make):
    with pytest.raises((ValueError, cli.ConfigError), match=f"^{re.escape(message)}$"):
        make(tmp_path)


def test_put_payoff_is_the_strike_less_the_terminal_value_when_positive():
    ends_low = SampledPath([0.0, 1.0], [1.0, 0.75])
    assert put_payoff(1.0)(ends_low) == 0.25
    assert put_payoff(0.5)(ends_low) == 0.0


def test_norvaisa_additivity_gap_is_zero_with_no_grid_time_inside_the_interval():
    # no time of the path's grid lies strictly inside (1/4, 1/2): no split is made
    square = {"kind": "smooth", "name": "quadratic"}
    assert norvaisa_qv_check(generate(square, 0, SEQ), SEQ, [(0.25, 0.5)]).additivity_gaps == [0.0]
    # on a finer grid the split at 3/8 is made, and x = t^2 is not additive across it
    fine = generate(square, 0, dyadic(1.0, 3))
    assert norvaisa_qv_check(fine, SEQ, [(0.25, 0.5)]).additivity_gaps[0] < -0.01
