import random
import statistics

import pytest

from blockdag import workload
from blockdag.codec import serialize_block
from blockdag.dag import brute_force_dag
from blockdag.model import Block
from blockdag.workload import (
    ConflictMetrics,
    WorkloadSpec,
    conflict_metrics,
    generate_block,
    generate_blocks,
    load_workload_spec,
)

from _helpers import random_family_block, random_structural_block, structural_block

ALL = ("wallet", "intkey", "voting", "insurance", "mixed")
KNOB_FAMILIES = ("wallet", "intkey", "insurance")  # voting conflicts regardless


def test_zero_dependency_wallet_block_is_conflict_free():
    spec = WorkloadSpec(family="wallet", txns_per_block=100, dependency_pct=0, rng_seed=1)
    block = generate_block(spec)
    metrics = conflict_metrics(block)
    assert brute_force_dag(block).edge_count == 0
    assert metrics == ConflictMetrics(cp1=0.0, cp2=0.0, cp3=100)


def test_full_dependency_intkey_block_touches_everyone():
    spec = WorkloadSpec(family="intkey", txns_per_block=50, dependency_pct=100, rng_seed=2)
    metrics = conflict_metrics(generate_block(spec))
    assert metrics.cp1 == 1.0


@pytest.mark.parametrize("family", KNOB_FAMILIES)
def test_knob_extremes_per_family(family):
    free = conflict_metrics(
        generate_block(WorkloadSpec(family=family, txns_per_block=60, dependency_pct=0, rng_seed=3))
    )
    assert free.cp1 == 0.0 and free.cp2 == 0.0 and free.cp3 == 60
    full = conflict_metrics(
        generate_block(WorkloadSpec(family=family, txns_per_block=60, dependency_pct=100, rng_seed=3))
    )
    assert full.cp1 == 1.0


def test_generation_is_deterministic_per_seed_and_sequence():
    spec = WorkloadSpec(family="mixed", txns_per_block=30, dependency_pct=40, rng_seed=11)
    assert serialize_block(generate_block(spec, 0)) == serialize_block(generate_block(spec, 0))
    assert serialize_block(generate_block(spec, 0)) != serialize_block(generate_block(spec, 1))
    other_seed = WorkloadSpec(family="mixed", txns_per_block=30, dependency_pct=40, rng_seed=12)
    assert serialize_block(generate_block(spec)) != serialize_block(generate_block(other_seed))


def test_generate_blocks_counts():
    spec = WorkloadSpec(family="intkey", txns_per_block=5, num_blocks=4, rng_seed=0)
    blocks = generate_blocks(spec)
    assert len(blocks) == 4
    assert all(b.txn_count == 5 for b in blocks)


def test_metrics_on_zero_edge_block():
    block = structural_block([({b"r%d" % i}, {b"w%d" % i}) for i in range(10)])
    assert conflict_metrics(block) == ConflictMetrics(cp1=0.0, cp2=0.0, cp3=10)


def test_metrics_on_chain_of_ten():
    specs = [(set(), {b"x0"})]
    for i in range(1, 10):
        specs.append(({b"x%d" % (i - 1)}, {b"x%d" % i}))
    metrics = conflict_metrics(structural_block(specs))
    assert metrics.cp1 == 1.0
    assert metrics.cp2 == pytest.approx(9 / 45)
    assert metrics.cp3 == 1


def test_metrics_on_two_disjoint_pairs():
    block = structural_block(
        [(set(), {b"a"}), ({b"a"}, set()), (set(), {b"b"}), ({b"b"}, set())]
    )
    metrics = conflict_metrics(block)
    assert metrics.cp1 == 1.0
    assert metrics.cp2 == pytest.approx(2 / 6)
    assert metrics.cp3 == 2


def test_mean_edge_density_non_decreasing_in_the_knob():
    for family in ALL:
        means = []
        for pct in (0, 25, 50, 75, 100):
            values = [
                conflict_metrics(
                    generate_block(
                        WorkloadSpec(family=family, txns_per_block=30, dependency_pct=pct, rng_seed=seed)
                    )
                ).cp2
                for seed in range(20)
            ]
            means.append(statistics.fmean(values))
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:])), (family, means)


def _oracle_metrics(block):
    """cp1/cp2/cp3 straight from the brute-force DAG, with a plain BFS for
    the components."""
    n = block.txn_count
    edges = brute_force_dag(block).edge_set()
    neighbours = {k: set() for k in range(n)}
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    components = 0
    unseen = set(range(n))
    while unseen:
        components += 1
        frontier = [unseen.pop()]
        while frontier:
            for k in neighbours[frontier.pop()] & unseen:
                unseen.discard(k)
                frontier.append(k)
    touched = sum(1 for k in range(n) if neighbours[k])
    possible = n * (n - 1) // 2
    return ConflictMetrics(
        cp1=touched / n if n else 0.0,
        cp2=len(edges) / possible if possible else 0.0,
        cp3=components,
    )


@pytest.mark.parametrize("family", ALL)
def test_metrics_equal_brute_force_oracle(family):
    for pct in (0, 20, 100):
        for seed in range(3):
            block = generate_block(
                WorkloadSpec(family=family, txns_per_block=40 + 7 * seed, dependency_pct=pct, rng_seed=seed)
            )
            assert conflict_metrics(block) == _oracle_metrics(block), (pct, seed)
    # random family mixes and access-set shapes (reads only, a read and a
    # write of one address, wide writes), seeded per parameter, and the
    # empty and one-transaction blocks
    rng = random.Random(f"oracle-{family}")
    blocks = [random_family_block(rng) for _ in range(6)]
    blocks += [random_structural_block(rng, max_n=24) for _ in range(6)]
    blocks += [random_family_block(rng, 1), Block(())]
    for k, block in enumerate(blocks):
        assert conflict_metrics(block) == _oracle_metrics(block), k


def test_component_merges_are_bounded_by_accesses(monkeypatch):
    # cp1 and cp3 come from the per-address accessor lists, one merge per
    # access at most; merging per edge would make 19 900 on this block
    block = generate_block(WorkloadSpec(family="voting", txns_per_block=200, dependency_pct=20, rng_seed=1))
    accesses = sum(len(txn.read_set | txn.write_set) for txn in block.transactions)
    assert accesses == 400
    calls = []
    merge = workload._UnionFind.union

    def counted(self, a, b):
        calls.append((a, b))
        return merge(self, a, b)

    monkeypatch.setattr(workload._UnionFind, "union", counted)
    assert conflict_metrics(block) == ConflictMetrics(cp1=1.0, cp2=1.0, cp3=1)
    assert 0 < len(calls) <= accesses


def test_conflict_metrics_fills_no_dag_storage():
    blocks = [
        generate_block(WorkloadSpec(family=family, txns_per_block=60, dependency_pct=20, rng_seed=4))
        for family in ALL
    ]
    expected = [_oracle_metrics(block) for block in blocks]
    assert [conflict_metrics(block) for block in blocks] == expected


def test_component_count_bounded_by_matched_pairs():
    # any matching of the conflict edges merges that many vertex pairs,
    # so the component count can be at most n minus the matching size
    rng = random.Random(71)
    for _ in range(15):
        family = rng.choice(ALL)
        block = generate_block(
            WorkloadSpec(
                family=family,
                txns_per_block=rng.randrange(2, 40),
                dependency_pct=rng.choice((0, 40, 80)),
                rng_seed=rng.randrange(999),
            )
        )
        n = block.txn_count
        matched: set[int] = set()
        matching = 0
        for i, j in brute_force_dag(block).edges():
            if i not in matched and j not in matched:
                matched.update((i, j))
                matching += 1
        assert conflict_metrics(block).cp3 <= n - matching


def test_metric_zero_equivalences():
    rng = random.Random(67)
    for _ in range(12):
        family = rng.choice(ALL)
        pct = rng.choice((0, 30, 100))
        block = generate_block(
            WorkloadSpec(family=family, txns_per_block=rng.randrange(2, 25), dependency_pct=pct, rng_seed=rng.randrange(999))
        )
        m = conflict_metrics(block)
        n = block.txn_count
        zeroish = (m.cp1 == 0.0, m.cp2 == 0.0, m.cp3 == n)
        assert all(zeroish) or not any(zeroish)


def test_voting_blocks_are_single_component():
    for n in (2, 3, 12):
        block = generate_block(WorkloadSpec(family="voting", txns_per_block=n, dependency_pct=0, rng_seed=4))
        assert conflict_metrics(block).cp3 == 1


def test_mixed_blocks_interleave_families():
    block = generate_block(WorkloadSpec(family="mixed", txns_per_block=40, dependency_pct=0, rng_seed=8))
    tags = [t.payload.family for t in block.transactions]
    counts = {tag: tags.count(tag) for tag in set(tags)}
    assert set(counts) == {"wallet", "intkey", "voting", "insurance"}
    assert all(count == 10 for count in counts.values())
    # shuffled, not blocked by family
    assert tags != sorted(tags)


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(family="wallet", txns_per_block=0).validate()
    with pytest.raises(ValueError):
        WorkloadSpec(family="wallet", txns_per_block=1, dependency_pct=101).validate()
    with pytest.raises(ValueError):
        WorkloadSpec(family="futures", txns_per_block=1).validate()
    with pytest.raises(ValueError):
        generate_block(WorkloadSpec(family="wallet", txns_per_block=1, num_blocks=0))


def test_load_workload_spec(tmp_path):
    path = tmp_path / "w.spec"
    path.write_text(
        "# comment\nfamily = intkey\ntxns_per_block=25\nnum_blocks=2\ndependency_pct=40\nrng_seed=7\n"
    )
    spec = load_workload_spec(str(path))
    assert spec == WorkloadSpec(
        family="intkey", txns_per_block=25, num_blocks=2, dependency_pct=40, rng_seed=7
    )


def test_load_workload_spec_errors(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("family=wallet\n")
    with pytest.raises(ValueError):
        load_workload_spec(str(bad))
    weird = tmp_path / "weird.spec"
    weird.write_text("family=wallet\ntxns_per_block=3\nshoes=2\n")
    with pytest.raises(ValueError):
        load_workload_spec(str(weird))
    noeq = tmp_path / "noeq.spec"
    noeq.write_text("family wallet\n")
    with pytest.raises(ValueError):
        load_workload_spec(str(noeq))
