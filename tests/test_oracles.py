import ast
from fractions import Fraction
from pathlib import Path

import pytest

import forestrep
from forestrep import oracles
from forestrep.oracles import (
    REDUCTION_SAMPLE_CAP,
    RTensor,
    check_cyclic_forest_lemma,
    check_partition_operator_agreement,
    check_reduction_soundness,
    check_term_parity,
    check_vacuum_pairing,
    check_word_injectivity,
    enumerate_forests,
    forest_split_sequence,
    operator_apply,
    path_words,
    random_elements,
)
from forestrep.errors import ContractError
from forestrep.trees import (
    LEAF,
    Forest,
    caret,
    compose,
    enumerate_trees,
    parse_tree,
    subrooted_trees,
)


def test_word_injectivity_small():
    report = check_word_injectivity(6)
    assert report["violations"] == 0
    assert report["instances"] == 1 + 1 + 2 + 5 + 14 + 42


def test_word_injectivity_trivial_case():
    report = check_word_injectivity(2)
    assert report["violations"] == 0


def test_cyclic_forest_lemma_small():
    report = check_cyclic_forest_lemma(5)
    assert report["violations"] == 0
    assert report["matches"] >= report["bound"]  # p = q with zero shift always matches


def test_term_parity_exhaustive_small():
    report = check_term_parity(max_leaves=4)
    assert report["violations"] == 0
    assert report["instances"] > 0


# pairwise references: every pair of forests or trees compared directly

def _cyclic_forest_pairwise(max_leaves):
    instances = matches = violations = 0
    for m in range(1, max_leaves + 1):
        forests = enumerate_forests(m)
        for p in forests:
            wp = path_words(p)
            for q in forests:
                wq = path_words(q)
                for c in range(m):
                    instances += 1
                    if (wp[-c:] + wp[:-c] if c else wp) != wq:
                        continue
                    matches += 1
                    n = p.root_count
                    if n != q.root_count or not any(
                        all(p.trees[j] == q.trees[(j + a) % n] for j in range(n))
                        for a in range(n)
                    ):
                        violations += 1
    return {
        "check": "cyclic-forest",
        "bound": max_leaves,
        "instances": instances,
        "matches": matches,
        "violations": violations,
    }


def _term_parity_pairwise(max_leaves):
    instances = violations = 0
    for n in range(1, max_leaves + 1):
        terms = [
            [(sorted(e.words), e.inner_leaves) for e in subrooted_trees(t)]
            for t in enumerate_trees(n)
        ]
        for range_terms in terms:
            for domain_terms in terms:
                for words_t, inner_t in range_terms:
                    for words_s, inner_s in domain_terms:
                        if words_t == words_s:
                            instances += 1
                            violations += inner_t != inner_s
    return {
        "check": "term-parity",
        "bound": max_leaves,
        "instances": instances,
        "violations": violations,
    }


def test_grouped_oracles_match_pairwise_references():
    for bound in range(1, 7):
        assert check_cyclic_forest_lemma(bound) == _cyclic_forest_pairwise(bound)
        assert check_term_parity(bound) == _term_parity_pairwise(bound)


def test_enumerating_oracles_refuse_bounds_up_front():
    checks = {
        check_word_injectivity: "290512 trees",
        check_cyclic_forest_lemma: "1033411 forests",
        check_term_parity: "290512 trees",
    }
    for check, count in checks.items():
        for bound in (0, -1):
            with pytest.raises(ContractError, match="below 1"):
                check(bound)
        for bound in (13, 10**9):
            with pytest.raises(ContractError, match=count):
                check(bound)
    for samples in (0, -1):
        with pytest.raises(ContractError, match="below 1"):
            check_reduction_soundness(samples)
    for samples in (REDUCTION_SAMPLE_CAP + 1, 10**9):
        over = f"samples {samples} is over the cap of {REDUCTION_SAMPLE_CAP}"
        with pytest.raises(ContractError, match=over):
            check_reduction_soundness(samples)


def test_reduction_soundness_quick():
    report = check_reduction_soundness(samples=60, seed=7)
    assert report["violations"] == 0
    assert report["speculative_candidates"] >= 0


def test_forest_split_sequence_round_trip():
    f = Forest((parse_tree("f1 f1"), parse_tree("f2 f1")))
    rebuilt = Forest((LEAF,) * f.root_count)
    for pos in forest_split_sequence(f):
        # one caret stacked under leaf pos splits it
        top = [LEAF] * rebuilt.leaf_count
        top[pos - 1] = caret(LEAF, LEAF)
        rebuilt = compose(Forest(top), rebuilt)
    assert rebuilt == f


def two_symbol_tensor() -> RTensor:
    return RTensor(
        (1, 2),
        {(1, 1, 1): Fraction(3, 5), (1, 2, 2): Fraction(4, 5), (2, 1, 2): Fraction(1)},
    )


def test_operator_coefficient_direct():
    R = RTensor((1,), {(1, 1, 1): Fraction(1)})
    f = Forest((caret(LEAF, LEAF),))
    assert operator_apply(f, R, (1,)) == {(1, 1): 1}


def test_partition_operator_agreement_small():
    report = check_partition_operator_agreement(two_symbol_tensor(), 4)
    assert report["violations"] == 0


def test_partition_operator_agreement_detects_a_wrong_route(monkeypatch):
    # scale one coefficient of the operator route: the state sums no longer
    # agree with it on exactly the boundaries that coefficient sits on
    honest = operator_apply

    def skewed(f, R, in_idx):
        table = honest(f, R, in_idx)
        if f.root_count == 1 and f.leaf_count == 2 and in_idx == (1,):
            table[(1, 1)] *= 2
        return table

    monkeypatch.setattr(oracles, "operator_apply", skewed)
    report = check_partition_operator_agreement(two_symbol_tensor(), 3)
    assert report["instances"] > 0
    assert report["violations"] == 1


def test_vacuum_pairing_small():
    report = check_vacuum_pairing(4)
    assert report["violations"] == 0
    assert report["instances"] > 500


def test_random_elements_deterministic():
    a = random_elements(5, 4, seed=3)
    b = random_elements(5, 4, seed=3)
    assert a == b
    assert all(not g.is_identity() for g in random_elements(5, 4, seed=3, nonidentity=True))


def _imported_modules(source: str) -> set[str]:
    """Absolute names of the modules a forestrep module's source imports,
    whether written relative or absolute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "forestrep" if node.level else ""
            module = ".".join(part for part in (base, node.module or "") if part)
            names.add(module)
            # "from . import oracles" names the module as an imported name
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_production_modules_do_not_import_oracles():
    # the oracles are the reference constructions the library is checked
    # against; only the command line reports them
    paths = sorted(Path(forestrep.__file__).parent.glob("*.py"))
    assert {"cli.py", "oracles.py", "shiftrep.py", "thompson.py"} <= {p.name for p in paths}
    importers = {
        p.stem for p in paths if "forestrep.oracles" in _imported_modules(p.read_text())
    }
    assert importers == {"cli"}
    assert "forestrep.oracles" in _imported_modules("from . import oracles")
    assert "forestrep.oracles" in _imported_modules("import forestrep.oracles as o")


_TREE_BUILDERS = {"LEAF", "Tree", "caret", "tree_from_depths", "parse_tree", "leaf_cells", "enumerate_trees"}


def _tree_builders_used(source: str) -> set[str]:
    """The tree builders a module's source binds by import or reads as an
    attribute, as in trees.caret."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & _TREE_BUILDERS


def test_production_modules_build_no_tree():
    # elements hold leaf depths, and only the public VElement constructor
    # reads a tree into them, by the walk trees.depths; the rotation scan
    # enumerates leaf depths, not trees
    root = Path(forestrep.__file__).parent
    for name in ("thompson.py", "coefficients.py", "shiftrep.py", "cli.py"):
        assert _tree_builders_used((root / name).read_text()) == set(), name
    assert _tree_builders_used("from .trees import LEAF, depths") == {"LEAF"}
    assert _tree_builders_used("from . import trees\ntrees.caret(a, b)") == {"caret"}
    assert _tree_builders_used("from .trees import parse_tree as p") == {"parse_tree"}
