"""Tests of the benchmark's oracle and checks on hand-built tiny cases.

    python3 -m pytest perfbench/test_oracle.py

The case: a 3-level taxonomy (root -> a, b -> a0, a1, b0, b1) and 12-bit
codes in two 6-bit segments with integer weights 2 and 1 (D_w = key / 3).
Rows 0 and 1 sit at the same exact distance from the all-zero query, key 7,
but adding the float layer weights gives 2.3333333333333335 for row 0 and
2.333333333333333 for row 1, so a float ranking puts row 1 first.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle  # noqa: E402

PARENT = {"root": None, "a": "root", "b": "root",
          "a0": "a", "a1": "a", "b0": "b", "b1": "b"}
LEAVES = ["a0", "a1", "b0", "b1"]
LAYOUT = oracle.Layout(K=3, scheme="effective", widths=(6, 6))
BITS = np.array([
    [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0],  # 3 + 1 bits off: key 2*3 + 1 = 7
    [1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0],  # 1 + 5 bits off: key 2*1 + 5 = 7
    [0] * 12,                              # the query itself: key 0
    [1] * 6 + [0] * 6,                     # key 12
], dtype=np.uint8)
PACKED = oracle.pack(LAYOUT, BITS)
FLOATS = [2 / 3 * 3 + 1 / 3 * 1, 2 / 3 * 1 + 1 / 3 * 5, 0.0, 2 / 3 * 6]


def key_row():
    words = oracle.segment_words(LAYOUT, PACKED)
    return oracle.keys(LAYOUT, [w[2:3] for w in words], words)[0]


def hits(order, floats=None):
    """(id, distance, inner product) rows; distances default to key * scale,
    as a program that keeps the tie rule would print them."""
    keys = key_row()
    floats = [k * LAYOUT.scale for k in keys] if floats is None else floats
    return [(i, floats[i], (LAYOUT.max_key - 2 * keys[i]) * LAYOUT.scale) for i in order]


def test_exact_keys_of_a_tie_whose_floats_differ():
    keys = key_row()
    assert keys.tolist() == [7, 7, 0, 12]
    assert FLOATS[0] != FLOATS[1]
    assert all(abs(f - k * LAYOUT.scale) <= 1e-12 for f, k in zip(FLOATS, keys))


def test_tie_rule_accepts_insertion_order_and_flags_float_order():
    assert oracle.tie_rule_top(key_row(), 4).tolist() == [2, 0, 1, 3]
    assert checks.check_hits(LAYOUT, key_row(), hits([2, 0, 1, 3]), 4, "correct")
    float_order = sorted(range(4), key=lambda i: FLOATS[i])
    assert float_order == [2, 1, 0, 3]
    assert not checks.check_hits(LAYOUT, key_row(), hits(float_order, FLOATS), 4, "float order")


@pytest.mark.parametrize("bad", ["skips a nearer item", "distance", "inner product",
                                 "decreasing", "repeated id"])
def test_contract_breaks_raise(bad):
    h, n = hits([2, 0, 1, 3]), 4
    if bad == "skips a nearer item":
        h, n = hits([2, 3]), 2
    elif bad == "distance":
        h[1] = (h[1][0], h[1][1] + 1e-9, h[1][2])
    elif bad == "inner product":
        h[1] = (h[1][0], h[1][1], h[1][2] + 1e-9)
    elif bad == "decreasing":
        h = hits([2, 0, 3, 1])
    else:
        h[3] = h[2]
    with pytest.raises(checks.CheckFailed):
        checks.check_hits(LAYOUT, key_row(), h, n, bad)


def test_padding_bits_are_masked_and_detected():
    layout = oracle.Layout(K=3, scheme="effective", widths=(12, 4))
    packed = oracle.pack(layout, np.zeros((2, 16), dtype=np.uint8))
    assert oracle.padding_clear(layout, packed)
    dirty = packed.copy()
    dirty[1, 1] |= 0x80  # past the 12 bits of segment 1
    assert not oracle.padding_clear(layout, dirty)
    words = oracle.segment_words(layout, dirty)
    assert oracle.keys(layout, words, words).tolist() == [[0, 0], [0, 0]]


def test_zero_weight_segment_is_ignored():
    layout = oracle.Layout(K=3, scheme="paper-literal", widths=(4, 4, 4))
    assert layout.int_weights == (0, 2, 1)
    bits = np.zeros((2, 12), dtype=np.uint8)
    bits[1, :4] = 1   # the dead layer-1 segment
    bits[1, 4] = 1    # one bit of layer 2
    words = oracle.segment_words(layout, oracle.pack(layout, bits))
    assert oracle.keys(layout, words, words)[0].tolist() == [0, 2]


def test_parent_chain_relevance():
    assert oracle.chain(PARENT, "b1") == ["root", "b", "b1"]
    shared = oracle.relevance_table(PARENT, LEAVES, "shared-layers")
    assert shared[0].tolist() == [2, 1, 0, 0]
    signed = oracle.relevance_table(PARENT, LEAVES, "hier-similarity")
    assert signed[0] == pytest.approx([1.0, 1 / 3, -1.0, -1.0], abs=1e-15)


def test_metrics_recomputed_from_their_formulas():
    ns = [1, 3]
    exact, lo, hi = oracle.query_metrics(np.array([0, 1, 2]), np.array([2.0, 1.0, 0.0]), ns)
    assert exact["acg"] == pytest.approx([2.0, 1.0])
    assert exact["dcg"] == pytest.approx([3.0, 3.0 + 1.0 / np.log2(3)])
    assert exact["ndcg"] == pytest.approx([1.0, 1.0])
    assert exact["weighted_recall"] == pytest.approx([2 / 3, 1.0])
    assert lo == exact == hi  # no ties
    zero = oracle.query_metrics(np.array([0, 1]), np.array([0.0, 0.0]), [1])[0]
    assert zero["ndcg"] == [1.0] and np.isnan(zero["weighted_recall"][0])


def test_tie_bounds_cover_every_order_of_a_level():
    keys = np.array([0, 1, 1, 2])
    rels = np.array([0.0, 1.0, 2.0, 0.0])  # the tied level holds relevances 1 and 2
    exact, lo, hi = oracle.query_metrics(keys, rels, [2])
    assert exact["acg"] == [0.5]          # insertion order keeps relevance 1 first
    assert lo["acg"] == [0.5] and hi["acg"] == [1.0]
    signed = np.array([0.0, 1.0, -1.0, 0.5])
    lo_r, hi_r = oracle.recall_within_bounds(keys, signed, np.array([0, 1, 2]), 2)
    assert lo_r.tolist() == pytest.approx([0.0, -1 / 0.5, 0.0])
    assert hi_r.tolist() == pytest.approx([0.0, 1 / 0.5, 1.0])


# --- the checks on real program outputs --------------------------------------------


@pytest.fixture
def tie_case(tmp_path):
    """The tiny case written through shdh.io and run through `shdh query` and
    `shdh eval`. Row 1 (label a0) is as relevant to the query (a0) as can be,
    row 0 (b0) not at all, so the two orders of the tie give different values."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from shdh.cli import main
    from shdh.codes import CodeDatabase, segment_layout
    from shdh.io import write_codes, write_labels, write_taxonomy

    layout = segment_layout(12, 3)
    d = str(tmp_path)
    write_codes(os.path.join(d, "db.shdc"), CodeDatabase(layout=layout, packed=PACKED))
    write_codes(os.path.join(d, "evalq.shdc"), CodeDatabase(layout=layout, packed=PACKED[2:3]))
    write_taxonomy(os.path.join(d, "taxonomy.tsv"), [(p, c) for c, p in PARENT.items() if p])
    write_labels(os.path.join(d, "train_labels.tsv"), range(4), ["b0", "a0", "a1", "b1"])
    write_labels(os.path.join(d, "evalq_labels.tsv"), range(1), ["a0"])
    assert main(["query", "--codes", os.path.join(d, "db.shdc"), "--query-id", "2",
                 "--n", "4", "--threads", "1", "--out", os.path.join(d, "probe.tsv")]) == 0
    assert main(["eval", "--db-codes", os.path.join(d, "db.shdc"), "--db-labels",
                 os.path.join(d, "train_labels.tsv"), "--query-codes",
                 os.path.join(d, "evalq.shdc"), "--query-labels",
                 os.path.join(d, "evalq_labels.tsv"), "--taxonomy",
                 os.path.join(d, "taxonomy.tsv"), "--ns", "1,2,4", "--threads", "1",
                 "--out-prefix", os.path.join(d, "eval", "run")]) == 0
    w = dict(K=3, scheme="effective", widths=[6, 6], mode="shared-layers", ns=[1, 2, 4])
    return checks.Inputs(d, w)


def test_checks_pass_program_outputs_and_count_the_tie_departure(tie_case):
    ids = [h[0] for h in checks.read_query_tsv(tie_case.path("probe.tsv"))["2"]]
    departs = ids != [2, 0, 1, 3]
    assert checks.check_query(tie_case, "db.shdc", "probe.tsv", 4, qids=[2]) == departs
    with open(tie_case.path("eval/run.metrics.csv")) as f:
        acg2 = next(float(line.split(",")[3]) for line in f if line.startswith("0,2,acg,"))
    assert acg2 in (0.5, 1.5)  # insertion order or float order of the tie
    assert checks.check_eval(tie_case) == (acg2 != 0.5)


def test_eval_value_outside_tie_bounds_fails(tie_case):
    path = tie_case.path("eval/run.metrics.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("0,2,acg,"))
    lines[i] = "0,2,acg,1.75"  # the bounds at n=2 are [0.5, 1.5]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_eval(tie_case)
