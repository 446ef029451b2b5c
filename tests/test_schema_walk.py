"""The scenario validator, ``scenarios._violation``, against jsonschema.

jsonschema is the reference: with ``integer`` redefined as a JSON integer
(8.0 is not a count) and every NaN or infinite number rejected, it must
accept and reject the same documents as the walker, and the walker's path
must be one of jsonschema's error paths.  The documents are single
mutations of every shipped scenario.
"""
import copy
import json
import math
import pathlib

import jsonschema
import pytest

from grassvar.scenarios import SCENARIO_SCHEMA, _violation

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))

# the keywords _violation implements; "description" carries no constraint
WALKER_KEYWORDS = {
    "type", "enum", "minimum", "maximum", "exclusiveMinimum", "required", "properties",
    "additionalProperties", "propertyNames", "pattern", "items", "minItems", "maxItems",
}
REPLACEMENTS = [-1, 8.0, "x", [], {}, True, math.nan]

_BASE = jsonschema.validators.validator_for(SCENARIO_SCHEMA)
_REFERENCE_CLASS = jsonschema.validators.extend(
    _BASE,
    type_checker=_BASE.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)
REFERENCE = _REFERENCE_CLASS(SCENARIO_SCHEMA)

# values at the edges of each keyword, which no shipped scenario reaches by
# a single mutation (no scenario gives an orientation, no list grows)
EDGES = [
    ({"enum": [1, -1]}, [1, 1.0, -1, True, False, 0, "1", None]),
    ({"type": "number", "exclusiveMinimum": 0}, [0, 0.0, -0.0, 1e-300, True, None]),
    ({"type": "integer", "minimum": 1}, [1, 0, 8.0, True, 2**70, None]),
    ({"type": "number", "minimum": 0}, [0, -1e-300, 0.0, False]),
    # the caps: the cap itself and the cap + 1
    ({"type": "integer", "minimum": 1, "maximum": 100000}, [100000, 100001, 100000.0, 2**70]),
    ({"type": "integer", "minimum": 2, "maximum": 8}, [8, 9, 8.0]),
    ({"type": "number", "maximum": 64}, [64, 65, 64.0, 64.00000000000001, True]),
    ({"type": "array", "maxItems": 16}, [[0.5] * 16, [0.5] * 17]),
    ({"type": "array", "minItems": 2, "maxItems": 2}, [[1], [1, 2], [1, 2, 3], (1, 2)]),
    ({"type": ["string", "number"]}, [True, None, 1, "a", 1.5, [1]]),
    ({"type": "boolean"}, [True, 0, 1, None]),
]


def _keywords(schema):
    """Every keyword used by a schema and its subschemas."""
    found = set(schema)
    subschemas = list(schema.get("properties", {}).values())
    subschemas += [schema[k] for k in ("items", "additionalProperties", "propertyNames")
                   if isinstance(schema.get(k), dict)]
    for sub in subschemas:
        found |= _keywords(sub)
    return found


def _nodes(node, where=()):
    """(path, node) of a document and every node inside it, in document order."""
    yield where, node
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield from _nodes(value, (*where, key))


def _at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


def _mutations(doc):
    """Each node set to each replacement, an unknown key added to each object,
    and each key deleted."""
    for where, node in _nodes(doc):
        for value in REPLACEMENTS:
            if not where:
                yield value
                continue
            mutated = copy.deepcopy(doc)
            _at(mutated, where[:-1])[where[-1]] = value
            yield mutated
        if isinstance(node, dict):
            mutated = copy.deepcopy(doc)
            _at(mutated, where)["zz_unknown"] = 1
            yield mutated
            for key in node:
                mutated = copy.deepcopy(doc)
                del _at(mutated, where)[key]
                yield mutated


def _reference_paths(doc):
    """The paths of jsonschema's errors and of every non-finite number."""
    paths = {tuple(error.absolute_path) for error in REFERENCE.iter_errors(doc)}
    return paths | {
        where for where, node in _nodes(doc)
        if isinstance(node, float) and not math.isfinite(node)
    }


def test_walker_implements_every_schema_keyword():
    assert _keywords(SCENARIO_SCHEMA) - {"description"} <= WALKER_KEYWORDS


@pytest.mark.parametrize("schema, values", EDGES, ids=[
    "enum", "exclusive-minimum", "integer-minimum", "number-minimum", "sample-cap",
    "dimension-cap", "number-maximum", "item-cap", "item-count", "type-list", "boolean"])
def test_walker_agrees_with_jsonschema_at_keyword_edges(schema, values):
    reference = _REFERENCE_CLASS(schema)
    for value in values:
        assert (_violation(schema, value) is None) == reference.is_valid(value), value


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_walker_agrees_with_jsonschema(path):
    mismatches, documents = [], 0
    for doc in _mutations(json.loads(path.read_text())):
        documents += 1
        found, expected = _violation(SCENARIO_SCHEMA, doc), _reference_paths(doc)
        if (found is None) != (not expected) or (found is not None and found[1] not in expected):
            mismatches.append((found, sorted(map(str, expected)), doc))
    assert documents > 100
    assert mismatches == []
