from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from andlib.cluster import STORED_CLUSTER_PARAMS, ClusterParams
from andlib.errors import ConfigError
from andlib.gbt import HyperParams
from andlib.pipeline import RunConfig
from andlib.settings import is_int, is_number
from andlib.synthetic import GeneratorConfig

#: any JSON value Python's json reads, NaN, +-inf and integers past float
#: range included, with small numbers often enough to make valid settings
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(0, 3)
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats(0, 1)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _same_json(a: dict, b: dict) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("value, int_ok, number_ok", [
    (3, True, True),
    (-2.5, False, True),
    (True, False, False),
    (float("nan"), False, False),
    (float("inf"), False, False),
    (-float("inf"), False, False),
    (10**400, True, False),
    (10**300, True, True),
    ("1", False, False),
    (None, False, False),
])
def test_json_value_rules(value, int_ok, number_ok):
    assert is_int(value) == int_ok
    assert is_number(value) == number_ok


@pytest.mark.parametrize("cls", [RunConfig, HyperParams, GeneratorConfig, ClusterParams])
def test_construction_and_replace_run_the_check(cls):
    import dataclasses

    name = dataclasses.fields(cls)[0].name
    with pytest.raises(ConfigError, match=repr(name)):
        cls(**{name: float("nan")})
    with pytest.raises(ConfigError, match=repr(name)):
        dataclasses.replace(cls(), **{name: float("nan")})


@pytest.mark.parametrize("cls", [RunConfig, HyperParams, GeneratorConfig, ClusterParams])
def test_from_doc_refuses_a_non_object_and_unknown_names(cls):
    with pytest.raises(ConfigError, match="JSON object"):
        cls.from_doc([1])
    with pytest.raises(ConfigError, match="warp"):
        cls.from_doc({"warp": 1})


def _check_mutation(cls, keys, data):
    """Replace one value of a valid document with any JSON value: the
    document is refused with an error that names the key, or makes an
    object that writes the same document back."""
    default = cls().to_doc()
    doc = {key: default[key] for key in keys}
    assert _same_json({k: v for k, v in cls.from_doc(doc).to_doc().items() if k in doc}, doc)
    key = data.draw(st.sampled_from(sorted(keys)))
    doc[key] = data.draw(JSON_VALUES)
    try:
        obj = cls.from_doc(doc)
    except ConfigError as exc:
        assert repr(key) in str(exc)
        return
    again = obj.to_doc()
    assert _same_json({k: v for k, v in again.items() if k in doc}, doc)
    assert cls.from_doc(again) == obj


@given(data=st.data())
def test_run_config_round_trips_or_names_the_bad_key(data):
    _check_mutation(RunConfig, RunConfig().to_doc().keys(), data)


@given(data=st.data())
def test_hyperparams_round_trip_or_name_the_bad_key(data):
    _check_mutation(HyperParams, HyperParams().to_doc().keys(), data)


@given(data=st.data())
def test_generator_config_round_trips_or_names_the_bad_key(data):
    _check_mutation(GeneratorConfig, GeneratorConfig().to_doc().keys(), data)


@given(data=st.data())
def test_stored_cluster_params_round_trip_or_name_the_bad_key(data):
    _check_mutation(ClusterParams, STORED_CLUSTER_PARAMS, data)
