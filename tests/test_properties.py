"""Property tests: fuzzed configurations and overrides fail only in typed ways.

Both tests are derandomized with a small example budget, so they run the
same cases on every run and keep the suite fast.
"""

import contextlib
import io
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullsrc.cli import main
from nullsrc.errors import ConfigError
from nullsrc.experiments import (
    _OVERRIDE_KEYS,
    builtin_presets,
    config_from_dict,
    config_to_dict,
    validate_config,
)

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["unit_square", "l_shape", "morozov", "affine", "ii"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

# (key path into a preset's config dict, ...): a path whose parent is no
# longer a dict is skipped
FIELD_PATHS = [
    (key,) for key in config_to_dict(builtin_presets()["ex1"])
] + [
    ("domain", "shape"),
    ("domain", "nx"),
    ("domain", "ny"),
    ("sigma", "kind"),
    ("sigma", "kappa1"),
    ("sigma", "kappa2"),
    ("alpha", "alpha_min"),
    ("alpha", "rel_tol"),
]
_DELETE = object()


@st.composite
def mutated_presets(draw):
    data = config_to_dict(builtin_presets()[draw(st.sampled_from(["ex1", "ex2", "ex4", "ex6a"]))])
    edits = draw(
        st.dictionaries(st.sampled_from(FIELD_PATHS), json_values | st.just(_DELETE), max_size=3)
    )
    for path, value in edits.items():
        parent = data
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if value is _DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return data


@FUZZ
@given(json_values | mutated_presets())
@example({**config_to_dict(builtin_presets()["ex1"]), "sigma": None})  # was AttributeError
def test_fuzzed_config_dicts_raise_only_config_error(data):
    try:
        validate_config(config_from_dict(data))
    except ConfigError:
        pass


override_values = (
    st.text(max_size=8)
    | st.floats().map(repr)
    | st.integers(min_value=-(10**30), max_value=10**30).map(str)
    | st.sampled_from(
        ["morozov", "II,III", "standard,i", ",", "nan", "-inf", "1e308", "0", "-1", "0.05", "1e-3"]
    )
)


@FUZZ
@given(st.dictionaries(st.sampled_from(_OVERRIDE_KEYS), override_values, min_size=1, max_size=3))
@example({"kappa": "0.05", "seed": "-1"})  # was a ValueError from the noise generator
def test_fuzzed_overrides_exit_0_1_or_2(overrides):
    with tempfile.TemporaryDirectory() as out:
        argv = ["preset", "ex1", "--out", out]
        for key, value in overrides.items():
            argv += ["--override", f"{key}={value}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
