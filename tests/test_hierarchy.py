import numpy as np
import pytest

from shdh.errors import (
    CycleDetected,
    DuplicateEdge,
    EmptyInput,
    HeightTooSmall,
    MultipleRoots,
    RaggedLeafDepth,
    SimilarityCapExceeded,
    UnknownLabel,
)
from shdh.hierarchy import DEFAULT_MATRIX_CAP, Taxonomy, key_weights, layer_weights
from shdh.io import parse_taxonomy

from oracles import (
    hier_similarity_brute,
    random_taxonomy,
    relevance_brute,
)


class TestParse:
    def test_basic_tree(self, toy3):
        assert toy3.K == 3
        assert toy3.root == "root"
        assert toy3.leaves == {"rose", "sun", "tiger", "oak"}

    def test_comments_and_blanks_ignored(self):
        tax = parse_taxonomy("# comment\nroot\ta\n\nroot\tb\na\tx\nb\ty\n")
        assert tax.leaves == {"x", "y"}

    def test_cycle(self):
        with pytest.raises(CycleDetected):
            parse_taxonomy("a\tb\nb\ta\n")

    def test_ragged_leaf_depth(self):
        # leaf 'b' at depth 2, leaf 'x' at depth 3
        with pytest.raises(RaggedLeafDepth):
            parse_taxonomy("root\ta\nroot\tb\na\tx\n")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            parse_taxonomy("root\ta\nroot\ta\n")

    def test_two_parents_is_duplicate(self):
        with pytest.raises(DuplicateEdge):
            parse_taxonomy("root\ta\nroot\tb\na\tx\nb\tx\n")

    def test_multiple_roots(self):
        with pytest.raises(MultipleRoots):
            parse_taxonomy("r1\ta\nr2\tb\n")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_taxonomy("# only a comment\n")

    def test_disconnected_cycle(self):
        with pytest.raises(CycleDetected):
            parse_taxonomy("root\ta\nroot\tb\na\tx\nb\ty\nu\tv\nv\tu\n")

    def test_dangling_parent(self):
        with pytest.raises(UnknownLabel, match="'x' has parent 'b'") as exc:
            Taxonomy({"root": None, "a": "root", "x": "b"})
        assert exc.value.exit_code == 2


class TestLayerWeights:
    def test_k4(self):
        lw = layer_weights(4)
        np.testing.assert_allclose(lw, [0.0, 0.5, 1 / 3, 1 / 6], rtol=0, atol=0)

    def test_k3(self):
        lw = layer_weights(3)
        np.testing.assert_allclose(lw, [0.0, 2 / 3, 1 / 3], rtol=0, atol=0)

    def test_k2(self):
        lw = layer_weights(2)
        np.testing.assert_allclose(lw, [0.0, 1.0], rtol=0, atol=0)

    def test_sum_one_and_decreasing(self):
        for K in range(2, 11):
            u = layer_weights(K)
            assert abs(u[1:].sum() - 1.0) < 1e-12
            assert u[0] == 0.0
            assert np.all(np.diff(u[1:]) < 0) or K == 2

    def test_height_too_small(self):
        with pytest.raises(HeightTooSmall):
            layer_weights(1)

    def test_key_weights_over_scale_equal_the_formula(self):
        # the integer table over K(K-1)/2 is the float formula
        # 2(K+1-k)/(K(K-1)) bit for bit, for every height an SHDC header can record
        for K in range(2, 256):
            w = key_weights(K)
            assert w.tolist() == [0] + [K + 1 - k for k in range(2, K + 1)]
            assert not w.flags.writeable and not layer_weights(K).flags.writeable
            formula = [0.0] + [2 * (K + 1 - k) / (K * (K - 1)) for k in range(2, K + 1)]
            assert layer_weights(K).tolist() == formula
            assert np.array_equal(layer_weights(K), w / (K * (K - 1) // 2))


def closed_form_similarity(K, d):
    """2 * sum_{k=2..d} u_k - 1 in closed form: 1 - 2(K-d)(K-d+1)/(K(K-1))."""
    return 1.0 - 2.0 * ((K - d) * (K - d + 1)) / (K * (K - 1))


def test_sim_by_depth_is_the_closed_form_bit_for_bit():
    # the table derives from key_weights and rounds as the closed form does,
    # for every height an SHDC header can record; -1.0 and 1.0 stay exact
    for K in range(2, 256):
        tax = Taxonomy({f"n{i}": (f"n{i - 1}" if i > 1 else None) for i in range(1, K + 1)})
        table = tax.sim_by_depth
        assert tax.K == K and np.isnan(table[0]) and not table.flags.writeable
        oracle = np.array([closed_form_similarity(K, d) for d in range(1, K + 1)])
        assert table[1:].tobytes() == oracle.tobytes()
        assert table[1] == -1.0 and table[K] == 1.0


def leaf_similarity(tax, a, b):
    """Similarity of two leaf labels: the table at their shared depth."""
    rows = tax.label_rows([a, b])
    return tax.sim_by_depth[tax.shared_depths(rows[0], rows[1])]


class TestHierSimilarity:
    def test_self_similarity_exactly_one(self, fig4):
        assert leaf_similarity(fig4, "rose", "rose") == 1.0

    def test_figure_pair(self, fig4):
        # shares layers 2 and 3: 2*(0.5 + 1/3) - 1 = 2/3
        assert leaf_similarity(fig4, "rose", "sunflower") == pytest.approx(2 / 3, abs=1e-15)

    def test_opposite_branch_exactly_minus_one(self, fig4):
        assert leaf_similarity(fig4, "rose", "tiger") == -1.0

    def test_monotone_in_shared_depth(self, fig4):
        # deeper common ancestor => strictly larger similarity
        s_sub = leaf_similarity(fig4, "rose", "sunflower")  # share depth 3
        s_kingdom = leaf_similarity(fig4, "rose", "oak")    # share depth 2
        s_none = leaf_similarity(fig4, "rose", "tiger")     # share depth 1
        assert s_sub > s_kingdom > s_none

    def test_only_leaves_accepted(self, fig4):
        with pytest.raises(UnknownLabel):
            leaf_similarity(fig4, "plant", "rose")


def _depth_brute(parent, K, a, b):
    """Deepest-common-ancestor depth: the root plus the shared non-root layers."""
    return 1 + int(relevance_brute(parent, K, a, b, "shared-layers"))


class TestSharedDepths:
    def test_broadcast_shapes_match_parent_chain_oracle(self):
        rng = np.random.default_rng(37)
        for K in range(2, 7):
            parent, leaves = random_taxonomy(rng, K, max_leaves=40)
            tax = Taxonomy(parent)
            a_labels = [str(x) for x in rng.choice(leaves, size=7)]
            b_labels = [str(x) for x in rng.choice(leaves, size=11)]
            a_rows, b_rows = tax.label_rows(a_labels), tax.label_rows(b_labels)

            one = tax.shared_depths(a_rows[0], b_rows)  # () x (n,)
            assert one.shape == (len(b_labels),)
            assert one.tolist() == [_depth_brute(parent, K, a_labels[0], b) for b in b_labels]

            grid = tax.shared_depths(a_rows[:, None], b_rows[None, :])  # (n,1) x (1,m)
            assert grid.shape == (len(a_labels), len(b_labels))
            assert grid.tolist() == [[_depth_brute(parent, K, a, b) for b in b_labels]
                                     for a in a_labels]

            pairs = tax.shared_depths(a_rows, b_rows[:len(a_rows)])  # (n,) x (n,)
            assert pairs.tolist() == [_depth_brute(parent, K, a, b)
                                      for a, b in zip(a_labels, b_labels)]


class TestLabelRows:
    @pytest.mark.parametrize("tax_name", ["toy3", "fig4"])
    def test_matches_dict_lookup_oracle(self, request, tax_name):
        tax = request.getfixturevalue(tax_name)
        row_of = {leaf: i for i, leaf in enumerate(sorted(tax.leaves))}
        rng = np.random.default_rng(41)
        for size in (0, 1, 2, 17, 300):
            labels = [str(x) for x in rng.choice(sorted(tax.leaves), size=size)]
            rows = tax.label_rows(labels)
            assert rows.dtype == np.int64
            assert rows.tolist() == [row_of[lab] for lab in labels]

    def test_unknown_label(self, toy3):
        # the first unknown label in input order, not in sorted order
        with pytest.raises(UnknownLabel) as exc:
            toy3.label_rows(["rose", "lily", "sun", "daisy"])
        assert exc.value.code == "UNKNOWN_LABEL"
        assert "'lily'" in str(exc.value) and "daisy" not in str(exc.value)


def _sim(tax, labels):
    return tax.similarity_matrix(tax.label_rows(labels))


class TestSimilarityMatrix:
    def test_identical_labels(self, toy3):
        S = _sim(toy3, ["rose", "rose"])
        np.testing.assert_array_equal(S, [[1.0, 1.0], [1.0, 1.0]])

    def test_opposite_pair(self, toy3):
        S = _sim(toy3, ["rose", "tiger"])
        np.testing.assert_array_equal(S, [[1.0, -1.0], [-1.0, 1.0]])

    def test_figure_triple(self, fig4):
        S = _sim(fig4, ["rose", "sunflower", "tiger"])
        assert S[0, 1] == pytest.approx(2 / 3, abs=1e-15)
        assert S[0, 2] == -1.0
        assert S[1, 2] == -1.0

    def test_cap(self, toy3):
        with pytest.raises(SimilarityCapExceeded):
            toy3.similarity_matrix(np.zeros(DEFAULT_MATRIX_CAP + 1, dtype=np.int64))

    def test_exact_symmetry_unit_diagonal_and_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            K = int(rng.integers(2, 7))
            parent, leaves = random_taxonomy(rng, K, max_leaves=50)
            tax = Taxonomy(parent)
            labels = list(rng.choice(leaves, size=25))
            S = _sim(tax, labels)
            assert np.array_equal(S, S.T)
            assert np.all(np.diag(S) == 1.0)
            assert np.all(S >= -1.0) and np.all(S <= 1.0)
            for i in range(len(labels)):
                for j in range(len(labels)):
                    assert S[i, j] == hier_similarity_brute(parent, K, labels[i], labels[j])

    def test_matches_hier_similarity_entrywise(self, fig4):
        labels = ["rose", "oak", "tiger", "sunflower", "rose"]
        S = _sim(fig4, labels)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                assert S[i, j] == leaf_similarity(fig4, a, b)

    def test_one_only_for_identical_leaves(self):
        # leaves all sit at depth K, so similarity 1 identifies the label
        rng = np.random.default_rng(29)
        for _ in range(5):
            K = int(rng.integers(2, 6))
            parent, leaves = random_taxonomy(rng, K, max_leaves=40)
            tax = Taxonomy(parent)
            S = _sim(tax, leaves)
            for i, a in enumerate(leaves):
                for j, b in enumerate(leaves):
                    assert (S[i, j] == 1.0) == (a == b)
