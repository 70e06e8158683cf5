"""Configuration fuzzing: a committed scenario with one value mutated or
deleted is either accepted, or refused with every problem on its own line,
led by the path of the field it is about. `validate` never fails with a
traceback.
"""

import contextlib
import copy
import io
import math
import re

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tddsim.cli import EXIT_CONFIG, EXIT_OK, main

from conftest import SCENARIOS

# `error: ` and then a field path: `sim`, `nodes[1].position`, ...
PROBLEM_LINE = re.compile(r"error: [a-z_]+(\[\d+\])*(\.[a-z_]+(\[\d+\])*)*: \S")

# libyaml's emitter when PyYAML was built with it: the same document, faster.
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Wrong types, NaN and infinities, negative numbers, an empty list, and a
# scalar, list or mapping where something else belongs.
REPLACEMENTS = ["x", 7, -1, -2.5, True, None, math.nan, math.inf, -math.inf, [], [1], {"x": 1}]


def value_paths(node, prefix=()):
    """The path of every mapping value and list entry under node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def mutations(doc) -> list[tuple]:
    """(path, how) for every single-value mutation of doc: a replacement
    value, "negate" for a number, "unknown key" added to a mapping, or
    "delete" of a mapping key or list entry."""
    found = [((), "unknown key")]
    for path in value_paths(doc):
        value = lookup(doc, path)
        found += [(path, replacement) for replacement in REPLACEMENTS]
        found.append((path, "delete"))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            found.append((path, "negate"))
        if isinstance(value, dict):
            found.append((path, "unknown key"))
    return found


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, path, how):
    if how == "unknown key":
        lookup(doc, path)["no_such_key"] = 1
        return
    holder = lookup(doc, path[:-1])
    if how == "delete":
        del holder[path[-1]]
    elif how == "negate":
        holder[path[-1]] = -holder[path[-1]] or -1
    else:
        holder[path[-1]] = copy.deepcopy(how)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))
def test_one_mutated_value_is_accepted_or_refused_by_path(name, tmp_path):
    base = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())
    config = tmp_path / "mutated.yaml"

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(st.sampled_from(mutations(base)))
    def check(mutation):
        doc = copy.deepcopy(base)
        mutate(doc, *mutation)
        config.write_text(yaml.dump(doc, Dumper=DUMPER))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--config", str(config)])
        assert code in (EXIT_OK, EXIT_CONFIG), mutation
        if code == EXIT_OK:
            assert err.getvalue() == "", mutation
        else:
            lines = err.getvalue().splitlines()
            assert lines and all(PROBLEM_LINE.match(line) for line in lines), (mutation, lines)

    check()
