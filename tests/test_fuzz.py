"""Mutated instance files: every one exits with a documented code.

Each example takes a packaged corpus instance, applies one mutation to its
JSON tree and runs `validate` and `homology` in-process.  A mutation deletes
a key, drops or duplicates a list item, or replaces a value with a small
malformed one.  A mutation never plants a large integer: no size cap exists
yet, and a large ambient_dim alone costs seconds (ROADMAP item 7).
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from orbimorse.cli import corpus_names, instance_to_text, load_corpus, main

# The lens spaces are left out: they go through the same simplicial reader
# as the other simplicial instances, a command on one takes about 0.1 s, and
# without them the draws stay the ones tests/outputs.txt digests.
DOCS = {name: instance_to_text(load_corpus(name)) for name in corpus_names()
        if not name.startswith("lens_")}

REPLACEMENTS = [None, True, False, "", "x", "1/0", 0.5, [], {},
                -2, -1, 0, 1, 2, 3]


@st.composite
def mutated(draw):
    """A corpus document with one mutation at a node reached by a random
    walk from the root, so shallow keys such as "kind" are hit often."""
    doc = json.loads(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(st.sampled_from(REPLACEMENTS))
    moves = ["replace", "delete"] + (["duplicate"] if isinstance(parent, list) else [])
    move = draw(st.sampled_from(moves))
    if move == "delete":
        del parent[key]
    elif move == "duplicate":
        parent.insert(key, json.loads(json.dumps(node)))
    else:
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return doc


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(doc=mutated())
def test_mutated_instances_exit_with_a_documented_code(doc, instance_path):
    instance_path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(instance_path)],
                 ["homology", str(instance_path)]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv[0], code, doc)
        if code == 4:
            assert err.getvalue().startswith("error: "), err.getvalue()
