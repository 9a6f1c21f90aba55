"""The problem-file validator against jsonschema's best_match, the oracle
it replaces: same verdict and same message on mutated fixture documents."""

import copy
import json

import pytest
from hypothesis import given, seed, settings, strategies as st

from isocert.cli.examples import EXAMPLE_NAMES, fixture_path
from isocert.cli.files import PROBLEM_SCHEMA, schema_violation

FIXTURES = [json.load(open(fixture_path(name), encoding="utf-8"))
            for name in EXAMPLE_NAMES]

VALUES = [None, True, False, 0, 1, -1, 2, 1.0, 0.0, -2.0, 1.5, float("nan"),
          "", "t1", [], ["t1"], [["0"]], [[1]], [["0", "1"], ["1"]], {},
          {"t1": [["0"]]}, {"name": "g"}, {"x": 1}]
_values = st.sampled_from(VALUES).map(copy.deepcopy)


jsonschema = pytest.importorskip("jsonschema")
_VALIDATOR = jsonschema.validators.validator_for(PROBLEM_SCHEMA)
_VALIDATOR.check_schema(PROBLEM_SCHEMA)
_ORACLE = _VALIDATOR(PROBLEM_SCHEMA)


def _oracle(document):
    """The message that jsonschema.validate would raise, or None."""
    error = jsonschema.exceptions.best_match(_ORACLE.iter_errors(document))
    return None if error is None else error.message


def _containers(node):
    """Every dict and list inside node, node first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _containers(child)


@st.composite
def _mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FIXTURES)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["replace", "delete", "add", "matrices",
                                     "size", "form"]))
        node = draw(st.sampled_from(list(_containers(doc))))
        if kind == "replace" and node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            node[key] = draw(_values)
        elif kind == "delete" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "t9", "zz"]))] = \
                draw(_values)
        elif kind == "matrices" and isinstance(doc.get("system"), dict) \
                and isinstance(doc["system"].get("matrices"), dict):
            doc["system"]["matrices"][draw(st.sampled_from(["t9", "zz"]))] = \
                draw(_values)
        elif kind == "size" and isinstance(doc.get("system"), dict):
            doc["system"]["size"] = draw(st.sampled_from([0, -1, -3, 0.0, -0.5]))
        elif kind == "form" and isinstance(doc.get("curve"), dict):
            doc["curve"]["form"] = draw(st.sampled_from([-1, -2.0, -0.5, True]))
    return doc


def test_validator_matches_jsonschema_best_match():
    seen = []

    @seed(20261019)
    @settings(max_examples=600, deadline=None, database=None)
    @given(_mutated_documents())
    def inner(document):
        message = schema_violation(document)
        assert message == _oracle(document), document
        seen.append(message)

    inner()
    assert None in seen
    for fragment in ("is not of type 'integer'", "is a required property",
                     "is less than the minimum of", "is not of type 'array'"):
        assert any(m and fragment in m for m in seen), fragment


@pytest.mark.parametrize("document, message", [
    ({"field": {"parametric": ["t"]}}, None),
    ({"field": {"parametric": ["t"]}, "extra": 1}, None),
    ({"field": {"parametric": ["t"]}, "system": {"size": 1.0, "matrices": {}}}, None),
    ({"field": {"parametric": ["t"]}, "system": {"size": True, "matrices": {}}},
     "True is not of type 'integer'"),
    ({"field": {"parametric": ["t"]}, "system": {"size": 0, "matrices": {}}},
     "0 is less than the minimum of 1"),
    ({"field": {"parametric": ["t"]}, "system": {"size": 0.5, "matrices": {}}},
     "0.5 is not of type 'integer'"),
    ({"field": {"parametric": ["t"]}, "curve": {"f": "x", "form": -1}},
     "-1 is less than the minimum of 0"),
    ({"field": {"parametric": ["t"]}, "system": {"size": 1, "matrices": {"t": None}}},
     "None is not of type 'array'"),
    ({"field": None}, "None is not of type 'object'"),
    ({}, "'field' is a required property"),
    ([], "[] is not of type 'object'"),
])
def test_validator_examples(document, message):
    assert schema_violation(document) == message
    assert _oracle(document) == message


def test_unsupported_schema_keyword_raises():
    schema = copy.deepcopy(PROBLEM_SCHEMA)
    schema["properties"]["field"]["properties"]["principal"]["maxLength"] = 3
    doc = {"field": {"principal": "x", "parametric": ["t"]}}
    with pytest.raises(ValueError, match="maxLength"):
        schema_violation(doc, schema)
    assert schema_violation(doc) is None
