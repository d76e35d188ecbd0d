import copy
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlat.cache_ai import all_miss, classify_task
from chainlat.cost import contract_task
from chainlat.ingest import (
    assign_period,
    assign_tt_offsets,
    chain_to_doc,
    generate_workload,
    merge_core_chains,
    parse_chain,
    parse_system,
    parse_task,
    parse_workload,
    system_to_doc,
    task_to_doc,
)
from chainlat.model import ChainSpec, ValidationError

from conftest import make_system


def test_assign_period_picks_min_feasible():
    assert assign_period([4200], (1000, 2000, 5000, 10000)) == 5000


def test_assign_period_boundary():
    assert assign_period([1000], (1000, 2000)) == 1000


def test_assign_period_infeasible():
    with pytest.raises(ValidationError):
        assign_period([10001], (1000, 10000))


def test_assign_tt_offsets():
    assert assign_tt_offsets([10, 20, 30]) == (0, 10, 30)
    assert assign_tt_offsets([5]) == (0,)
    assert assign_tt_offsets([7, 7, 7, 7]) == (0, 7, 14, 21)


def test_merge_two_et_chains():
    a = ChainSpec("a", "ET", ("t0", "t1"), 0, period=100)
    b = ChainSpec("b", "ET", ("t2", "t3"), 0, period=100)
    merged = merge_core_chains([a, b])
    assert merged.tasks == ("t0", "t1", "t2", "t3")
    assert merged.trigger == "ET"
    assert merged.period == 100


def test_merge_single_chain_identity():
    a = ChainSpec("a", "ET", ("t0",), 0)
    assert merge_core_chains([a]) is a


def test_merge_mixed_triggers_rejected():
    a = ChainSpec("a", "ET", ("t0",), 0)
    b = ChainSpec("b", "TT", ("t1",), 0, offsets=(0,))
    with pytest.raises(ValidationError):
        merge_core_chains([a, b])


def test_merge_tt_chains_with_explicit_offsets_rejected():
    a = ChainSpec("a", "TT", ("t0",), 0, period=100)
    b = ChainSpec("b", "TT", ("t1", "t2"), 0, period=100, offsets=(0, 40))
    with pytest.raises(ValidationError) as err:
        merge_core_chains([a, b], "a.json, b.json")
    assert str(err.value) == ("a.json, b.json: core 0 merges chains with explicit offsets (b); "
                              "merged chains take back-to-back offsets")
    assert merge_core_chains([a, replace(b, offsets=None)]).offsets is None


def _write_bundle(tmp_path, bundle):
    sp = tmp_path / "system.json"
    sp.write_text(json.dumps(system_to_doc(bundle.system)))
    tps, cps = [], []
    for tid in sorted(bundle.tasks):
        p = tmp_path / ("task_%s.json" % tid)
        p.write_text(json.dumps(task_to_doc(bundle.tasks[tid])))
        tps.append(p)
    for cid in sorted(bundle.chains):
        p = tmp_path / ("chain_%s.json" % cid)
        p.write_text(json.dumps(chain_to_doc(bundle.chains[cid])))
        cps.append(p)
    return sp, tps, cps


def test_parse_minimal_bundle(tmp_path):
    sp = tmp_path / "system.json"
    sp.write_text(json.dumps(system_to_doc(make_system(cores=1))))
    tp = tmp_path / "task.json"
    tp.write_text(json.dumps({
        "task_id": "t0",
        "blocks": [{"id": "b0", "instructions": 2, "accesses": []}],
        "edges": [],
        "loops": [],
        "exclusive_pairs": [],
    }))
    cp = tmp_path / "chain.json"
    cp.write_text(json.dumps({"id": "c0", "trigger": "ET", "tasks": ["t0"], "core": 0}))
    bundle = parse_workload(sp, [tp], [cp])
    assert set(bundle.tasks) == {"t0"}
    assert bundle.chains["c0"].period is None


def test_parse_unknown_task_reference(tmp_path):
    sp = tmp_path / "system.json"
    sp.write_text(json.dumps(system_to_doc(make_system(cores=1))))
    cp = tmp_path / "chain.json"
    cp.write_text(json.dumps({"id": "c0", "trigger": "ET", "tasks": ["ghost"], "core": 0}))
    with pytest.raises(ValidationError, match="unknown task"):
        parse_workload(sp, [], [cp])


def test_parse_irreducible_loop(tmp_path):
    doc = {
        "task_id": "t0",
        "blocks": [{"id": b, "instructions": 1, "accesses": []} for b in ("b0", "h", "t", "u", "x")],
        "edges": [["b0", "h"], ["h", "t"], ["t", "h"], ["t", "u"], ["u", "h"], ["u", "x"]],
        "loops": [{"id": "l", "head": "h", "tail": "t", "back_edge": ["t", "h"],
                   "min_bound": 1, "max_bound": 2, "parent": None}],
        "exclusive_pairs": [],
    }
    with pytest.raises(ValidationError, match="irreducible"):
        parse_task(doc, "task.json")


def test_parse_malformed_json_reports_location(tmp_path):
    sp = tmp_path / "system.json"
    sp.write_text("{not json")
    with pytest.raises(ValidationError, match="system.json"):
        parse_workload(sp, [], [])


def test_parse_merges_chains_sharing_a_core(tmp_path):
    sp = tmp_path / "system.json"
    sp.write_text(json.dumps(system_to_doc(make_system(cores=1))))
    tps = []
    for tid in ("t0", "t1"):
        p = tmp_path / ("task_%s.json" % tid)
        p.write_text(json.dumps({
            "task_id": tid,
            "blocks": [{"id": "b0", "instructions": 2, "accesses": []}],
            "edges": [], "loops": [], "exclusive_pairs": [],
        }))
        tps.append(p)
    cps = []
    for cid, tid in (("a", "t0"), ("b", "t1")):
        p = tmp_path / ("chain_%s.json" % cid)
        p.write_text(json.dumps({"id": cid, "trigger": "ET", "tasks": [tid], "core": 0}))
        cps.append(p)
    bundle = parse_workload(sp, tps, cps)
    assert list(bundle.chains) == ["a+b"]
    assert bundle.chains["a+b"].tasks == ("t0", "t1")


def test_roundtrip(tmp_path):
    bundle = generate_workload(seed=4, cores=2, tasks_per_chain=2)
    sp, tps, cps = _write_bundle(tmp_path, bundle)
    again = parse_workload(sp, tps, cps)
    assert again.system == bundle.system
    assert again.tasks == bundle.tasks
    assert again.chains == bundle.chains


def test_generator_deterministic():
    a = generate_workload(seed=1, cores=2, tasks_per_chain=1)
    b = generate_workload(seed=1, cores=2, tasks_per_chain=1)
    assert a == b


def test_generator_seed_sensitive():
    a = generate_workload(seed=1, cores=2, tasks_per_chain=1)
    b = generate_workload(seed=2, cores=2, tasks_per_chain=1)
    assert a != b


@pytest.mark.parametrize("param, value, message", [
    ("tasks_per_chain", 3, "tasks_per_chain must be one of 1, 2, 4"),
    ("cores", 0, "cores must be in [1, 16]"),
    ("blocks_per_task", 1, "blocks_per_task must be in [2, 64]"),
    ("loop_depth", 3, "loop_depth must be in [0, 2]"),
    ("utilization", 1.5, "utilization must be in [0.05, 0.98]"),
    ("collision", 1.5, "collision must be in [0, 1]"),
    ("trigger", "both", "trigger must be ET, TT or mix"),
], ids=("tasks_per_chain", "cores", "blocks_per_task", "loop_depth", "utilization", "collision", "trigger"))
def test_generator_rejects_bad_params(param, value, message):
    with pytest.raises(ValidationError) as err:
        generate_workload(seed=1, **{param: value})
    assert str(err.value) == message


def test_generator_hits_utilization_target():
    for seed in range(5):
        bundle = generate_workload(seed=seed, cores=2, tasks_per_chain=4, utilization=0.9)
        for chain in bundle.chains.values():
            cips = []
            for tid in chain.tasks:
                task = bundle.tasks[tid]
                cls = classify_task(task, bundle.system)
                cips.append(contract_task(task, cls, bundle.system, refined=all_miss(cls)).wcet)
            ratio = sum(cips) / chain.period
            assert 0.8 <= ratio <= 1.0, (seed, chain.id, ratio)


def test_generated_chains_schedulable():
    for seed in range(5):
        bundle = generate_workload(seed=seed, cores=2, tasks_per_chain=2, utilization=0.7)
        for chain in bundle.chains.values():
            cips = []
            for tid in chain.tasks:
                cls = classify_task(bundle.tasks[tid], bundle.system)
                cips.append(contract_task(bundle.tasks[tid], cls, bundle.system, refined=all_miss(cls)).wcet)
            assert sum(cips) <= chain.period
            if chain.trigger == "TT":
                assert chain.offsets == assign_tt_offsets(cips)


def _valid_docs():
    """A system, a TT chain, a task with nested loops and one with an exclusive pair."""
    tt = generate_workload(seed=6, trigger="TT")
    mixed = generate_workload(seed=4)
    assert any(loop.parent_loop for loop in tt.tasks["t0"].loops.values())
    assert mixed.tasks["t0"].exclusive_pairs
    return (
        (parse_system, system_to_doc(tt.system)),
        (parse_chain, chain_to_doc(tt.chains["c0"])),
        (parse_task, task_to_doc(tt.tasks["t0"])),
        (parse_task, task_to_doc(mixed.tasks["t0"])),
    )


VALID_DOCS = _valid_docs()


@pytest.mark.parametrize("parse,doc", VALID_DOCS)
def test_valid_documents_parse(parse, doc):
    parse(doc)


@pytest.mark.parametrize("blocks", ([5], [[]]), ids=("number", "list"))
def test_parse_task_rejects_non_object_block(blocks):
    doc = dict(VALID_DOCS[2][1], blocks=blocks)
    with pytest.raises(ValidationError, match="malformed task document"):
        parse_task(doc)


@pytest.mark.parametrize("parse,path", [
    (parse_system, ("mem_latency",)),
    (parse_chain, ("core",)),
    (parse_task, ("blocks", 0, "instructions")),
], ids=("system", "chain", "task"))
@pytest.mark.parametrize("value", (float("inf"), float("-inf"), float("nan")))
def test_parsers_reject_non_finite_integers(parse, path, value):
    doc = next(d for p, d in VALID_DOCS if p is parse)
    with pytest.raises(ValidationError, match="malformed"):
        parse(_replaced(doc, path, value))


# (parser, position, wrong value, field the message names)
WRONG_TYPES = [
    (parse_system, ("mem_latency",), 30.9, "mem_latency"),
    (parse_system, ("cores",), "2", "cores"),
    (parse_system, ("base_cpi",), True, "base_cpi"),
    (parse_chain, ("core",), 0.5, "core"),
    (parse_chain, ("tasks",), "t0", "tasks"),
    (parse_system, ("l2", "ways"), 4.0, "l2.ways"),
    (parse_system, ("period_table", 0), "2000", "period_table[0]"),
    (parse_chain, ("id",), 0, "id"),
    (parse_chain, ("offsets",), [0, 1.5], "offsets[1]"),
    (parse_task, ("task_id",), 7, "task_id"),
    (parse_task, ("blocks", 0, "id"), 0, "blocks[0].id"),
    (parse_task, ("blocks", 0, "instructions"), False, "blocks[0].instructions"),
    (parse_task, ("edges", 0), "ab", "edges[0]"),
]


@pytest.mark.parametrize("parse,path,value,field", WRONG_TYPES,
                         ids=["%s-%s" % (p.__name__, f) for p, _, _, f in WRONG_TYPES])
def test_parsers_reject_wrong_json_types(parse, path, value, field):
    doc = next(d for p, d in VALID_DOCS if p is parse)
    with pytest.raises(ValidationError, match=r"malformed \w+ document \(%s must be" % re.escape(field)):
        parse(_replaced(doc, path, value))


# (document, position, wrong value, whole message): field names in nested objects and lists.
NESTED_FIELDS = [
    (0, ("l2", "ways"), 4.0, "system: malformed system document (l2.ways must be an integer, not a number)"),
    (0, ("l1",), {"sets": 2, "ways": 4, "line": 32}, "system: missing key 'l1.hit'"),
    (0, ("period_table", 1), "4000",
     "system: malformed system document (period_table[1] must be an integer, not a string)"),
    (1, ("offsets",), [0, 1.5], "chain: malformed chain document (offsets[1] must be an integer, not a number)"),
    (2, ("blocks", 1, "accesses", 1, "address"), "0",
     "task: malformed task document (blocks[1].accesses[1].address must be an integer, not a string)"),
    (2, ("blocks", 2, "accesses", 0, "id"), 3,
     "task: malformed task document (blocks[2].accesses[0].id must be a string, not an integer)"),
    (2, ("blocks", 1, "accesses"), {},
     "task: malformed task document (blocks[1].accesses must be a list, not an object)"),
    (2, ("blocks", 1, "accesses", 0), 5,
     "task: malformed task document (blocks[1].accesses[0] must be an object, not an integer)"),
    (2, ("blocks", 2, "accesses", 0), {"id": "z"}, "task: missing key 'blocks[2].accesses[0].address'"),
    (2, ("blocks", 3), {"id": "z"}, "task: missing key 'blocks[3].instructions'"),
    (2, ("loops", 1, "max_bound"), 6.0,
     "task: malformed task document (loops[1].max_bound must be an integer, not a number)"),
    (2, ("loops", 0, "back_edge"), ["t0_b3"],
     "task: malformed task document (loops[0].back_edge must be a list of two strings)"),
    (2, ("loops", 0, "parent"), 1, "task: malformed task document (loops[0].parent must be a string, not an integer)"),
    (2, ("loops", 1), {"id": "l"}, "task: missing key 'loops[1].head'"),
    (2, ("edges", 2), ["a"], "task: malformed task document (edges[2] must be a list of two strings)"),
    (2, ("exclusive_pairs",), [["a"]],
     "task: malformed task document (exclusive_pairs[0] must be a list of two strings)"),
]


@pytest.mark.parametrize("index,path,value,message", NESTED_FIELDS,
                         ids=[".".join(map(str, path)) for _, path, _, _ in NESTED_FIELDS])
def test_messages_spell_nested_field_names(index, path, value, message):
    parse, doc = VALID_DOCS[index]
    with pytest.raises(ValidationError) as info:
        parse(_replaced(doc, path, value))
    assert str(info.value) == message


def _two_defects(doc, *edits):
    doc = copy.deepcopy(doc)
    for edit in edits:
        edit(doc)
    return doc


# Two defects per document: the message names the one the parser checks
# first.  A list's element types come before any element's fields, and a
# block's accesses before its own id.
FIRST_ERRORS = [
    ((lambda d: d["blocks"][0].update(accesses=[{"id": 5, "address": 1}]),
      lambda d: d["blocks"].__setitem__(2, 7)),
     "blocks[2] must be an object, not an integer"),
    ((lambda d: d["blocks"][0].update(accesses=[{"id": "q", "address": 2 ** 40}, 3]),),
     "blocks[0].accesses[1] must be an object, not an integer"),
    ((lambda d: d["blocks"][0].update(id=1, accesses=[{"id": "q", "address": "z"}]),),
     "blocks[0].accesses[0].address must be an integer, not a string"),
]


@pytest.mark.parametrize("edits,field_error", FIRST_ERRORS, ids=("block-type", "access-type", "access-field"))
def test_parse_task_reports_the_first_defect(edits, field_error):
    with pytest.raises(ValidationError) as info:
        parse_task(_two_defects(VALID_DOCS[2][1], *edits), "task_t1.json")
    assert str(info.value) == "task_t1.json: malformed task document (%s)" % field_error


def test_parse_task_rejects_identical_exclusive_pair():
    doc = VALID_DOCS[3][1]
    block = doc["exclusive_pairs"][0][0]
    with pytest.raises(ValidationError, match="exclusive pair with identical blocks %s" % block):
        parse_task(_replaced(doc, ("exclusive_pairs",), [[block, block]]))


@pytest.mark.parametrize("constant", ("Infinity", "-Infinity", "NaN"))
def test_load_rejects_non_finite_constants(tmp_path, constant):
    sp = tmp_path / "system.json"
    sp.write_text(json.dumps(VALID_DOCS[0][1]).replace('"mem_latency": 30', '"mem_latency": ' + constant))
    with pytest.raises(ValidationError, match="system.json: non-finite number " + constant):
        parse_workload(sp, [], [])


def test_load_rejects_non_utf8_text(tmp_path):
    sp = tmp_path / "system.json"
    sp.write_bytes(b'{"cores": "\xff"}')
    with pytest.raises(ValidationError, match="system.json: not UTF-8"):
        parse_workload(sp, [], [])


def test_load_rejects_deeply_nested_json(tmp_path):
    sp = tmp_path / "system.json"
    sp.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValidationError, match="system.json: JSON nested too deeply"):
        parse_workload(sp, [], [])


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_replaced_value_parses_or_fails_validation(data):
    # Python's json accepts Infinity and NaN, so the floats include them.
    parse, doc = data.draw(st.sampled_from(VALID_DOCS))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    try:
        parse(_replaced(doc, path, data.draw(json_values)))
    except ValidationError:
        pass
