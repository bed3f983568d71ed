"""Every small block, every declared DAG: bounded-exhaustive verdicts.

Two scopes: every block of 3 transactions over 2 addresses (4 096 blocks)
and every block of 4 transactions over 1 address (256), each transaction
having no access, a read, a write or both on each address. Each block is
judged with every declared DAG over its pairs, each DAG's lists also
reversed; an oracle of a few lines over ``brute_force_dag``'s edges, kept
apart from the validator, gives the verdict each must get. On a fixed
subset, every DAG also gets each structural defect the validator judges:
a repeated dependency, or an indegree entry off by one. Every honest block
also plans ``brute_force_dag``'s tuples and runs, at 1 and 2 workers, in an
order that respects every edge. Each scope is judged once more with every
transaction whose read and write sets are equal holding one object for
both, as most ops do, which takes the per-address pass's own paths for
such sets.

The dependency range is not a verdict: a dependency of -1, of j or of
j + 1 is refused where its transaction is made, and j or j + 1 written as
bytes is refused by the parser. Nor is the indegree range: an entry
outside [0, n), such as the n that a repeat appended to a full list makes,
is refused where its block is made, and as bytes by the parser.
"""

import functools
import itertools
import re
from dataclasses import replace

import pytest

from blockdag.codec import MalformedBlockError, parse_block
from blockdag.dag import address_pass, brute_force_dag, dag_from_shared
from blockdag.families import block_from_ops, intkey_set
from blockdag.model import Block, StateStore, Transaction
from blockdag.scheduler import execute_block_parallel
from blockdag.validator import Verdict, validate_dag

from _helpers import assert_exactly_once, assert_topological, structural_txn, unchecked_wire

HONEST = Verdict.HONEST
MISSING = Verdict.MALICIOUS_MISSING_EDGE
EXTRA = Verdict.MALICIOUS_EXTRA_EDGE

# scope name: (transactions, addresses)
_SCOPES = {"3-over-2": (3, 2), "4-over-1": (4, 1)}


def _oracle(truth, declared, indegree) -> Verdict:
    """The verdict by the documented precedence, from the true edges alone."""
    if any(len(set(deps)) != len(deps) for deps in declared) or indegree != tuple(
        map(len, declared)
    ):
        return EXTRA
    if any(not set(preds) <= set(deps) for preds, deps in zip(truth, declared)):
        return MISSING
    if any(set(preds) != set(deps) for preds, deps in zip(truth, declared)):
        return EXTRA
    return HONEST


@functools.lru_cache(maxsize=None)
def _scope(name, one_object=False):
    """Every block of the scope, each with its brute-force predecessor tuples.

    With ``one_object``, a transaction whose read and write sets are equal
    holds one object for both, as every op's sets do but an insurance
    read's; otherwise each set is an object of its own.
    """
    n, width = _SCOPES[name]
    addresses = [b"a%d" % k for k in range(width)]
    # per address: 0 no access, 1 read, 2 write, 3 both
    patterns = [
        (
            frozenset(a for a, code in zip(addresses, codes) if code & 1),
            frozenset(a for a, code in zip(addresses, codes) if code & 2),
        )
        for codes in itertools.product(range(4), repeat=width)
    ]
    if one_object:
        patterns = [(reads, reads if reads == writes else writes) for reads, writes in patterns]
    blocks = []
    for sets in itertools.product(patterns, repeat=n):
        block = Block(tuple(structural_txn(j, *rw) for j, rw in enumerate(sets)))
        blocks.append((block, brute_force_dag(block).preds))
    return blocks


@functools.lru_cache(maxsize=None)
def _declared_dags(n):
    """Every DAG over the pairs of n transactions, as ascending lists."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    dags = []
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        deps = [[] for _ in range(n)]
        for (i, j), keep in zip(pairs, chosen):
            if keep:
                deps[j].append(i)
        dags.append(tuple(map(tuple, deps)))
    return dags


def _structural_defects(declared):
    """Each list given a repeat, appended or in place of its last entry, and
    each indegree entry off by one: (lists, indegree) pairs."""
    lengths = tuple(map(len, declared))
    for j, deps in enumerate(declared):
        for repeated in (deps + deps[:1], deps[:-1] + deps[:1]):
            if len(set(repeated)) < len(repeated):
                with_repeat = declared[:j] + (repeated,) + declared[j + 1 :]
                yield with_repeat, tuple(map(len, with_repeat))
        for entry in (lengths[j] - 1, lengths[j] + 1):
            if entry >= 0:
                yield declared, lengths[:j] + (entry,) + lengths[j + 1 :]


def _shared(block, declared, indegree=None, made=None):
    """The block carrying ``declared``; ``made`` keeps each transaction built,
    keyed by index and list, for the next call on the same block."""
    made = {} if made is None else made
    txns = []
    for j, (txn, deps) in enumerate(zip(block.transactions, declared)):
        made_txn = made.get((j, deps))
        if made_txn is None:
            made_txn = made[j, deps] = Transaction(j, txn.read_set, txn.write_set, txn.payload, deps)
        txns.append(made_txn)
    return Block(tuple(txns), tuple(map(len, declared)) if indegree is None else indegree)


def _judge_every_declared_dag(block, truth, mismatches, seen):
    """Validate the block with every declared DAG, each also with its lists
    reversed; record each verdict the oracle wants, and each it did not get."""
    made = {}
    for declared in _declared_dags(block.txn_count):
        for deps in {declared, tuple(tuple(reversed(d)) for d in declared)}:
            want = _oracle(truth, deps, tuple(map(len, deps)))
            got = validate_dag(_shared(block, deps, made=made))
            seen.add(want)
            if got is not want:
                mismatches.append((truth, deps, got, want))


@pytest.mark.parametrize("scope", sorted(_SCOPES))
def test_every_declared_dag_gets_the_oracles_verdict(scope):
    mismatches = []
    seen = set()
    for block, truth in _scope(scope):
        _judge_every_declared_dag(block, truth, mismatches, seen)
    assert mismatches[:5] == [] and seen == set(Verdict)


# per scope: the transactions whose one set object holds one address, and
# those whose one object holds more
_ONE_OBJECT_TXNS = {"3-over-2": (1_536, 768), "4-over-1": (256, 0)}


@pytest.mark.parametrize("scope", sorted(_SCOPES))
def test_sets_held_as_one_object_get_the_oracles_verdicts(scope):
    # the pass's paths for a read set that is its write set object, judged
    # like the separate sets above: the same lists, then every declared DAG
    reached = [0, 0]
    mismatches = []
    seen = set()
    for (block, truth), (apart, _) in zip(_scope(scope, one_object=True), _scope(scope)):
        for txn in block.transactions:
            if txn.read_set is txn.write_set and txn.write_set:
                reached[len(txn.write_set) > 1] += 1
        index = address_pass(block)
        assert tuple(index.preds) == truth
        assert index[1:] == address_pass(apart)[1:]
        _judge_every_declared_dag(block, truth, mismatches, seen)
    assert mismatches[:5] == [] and seen == set(Verdict)
    assert tuple(reached) == _ONE_OBJECT_TXNS[scope]


# per scope: the structural defects judged over its every 11th block
_DEFECT_VERDICTS = {"3-over-2": 15_666, "4-over-1": 13_440}


@pytest.mark.parametrize("scope", sorted(_SCOPES))
def test_a_structural_defect_outranks_every_other_verdict(scope):
    # a fixed subset of each scope: every 11th block, with every declared
    # DAG; a defect that makes an indegree entry of n is refused below
    checked = 0
    for block, truth in _scope(scope)[::11]:
        made = {}
        n = block.txn_count
        for declared in _declared_dags(n):
            for deps, indegree in _structural_defects(declared):
                if n in indegree:
                    continue
                assert _oracle(truth, deps, indegree) is EXTRA
                verdict = validate_dag(_shared(block, deps, indegree, made))
                assert verdict is EXTRA, (truth, deps, indegree, verdict)
                checked += 1
    assert checked == _DEFECT_VERDICTS[scope]


@pytest.mark.parametrize("scope", sorted(_SCOPES))
def test_a_defect_that_makes_an_indegree_of_n_is_refused(scope):
    # a repeat appended to the last, full list, or its entry + 1: no block
    # holds either, and the wire refuses the first, whose lists make it
    n = _SCOPES[scope][0]
    block = _scope(scope)[0][0]
    wire_block = block_from_ops([intkey_set("k", v) for v in range(n)])
    refused = on_the_wire = 0
    for declared in _declared_dags(n):
        for deps, indegree in _structural_defects(declared):
            if n not in indegree:
                continue
            message = f"^indegree {n} for transaction {n - 1} out of range$"
            with pytest.raises(ValueError, match=message):
                _shared(block, deps, indegree)
            refused += 1
            if indegree == tuple(map(len, deps)):
                with pytest.raises(MalformedBlockError, match=message):
                    parse_block(unchecked_wire(wire_block, deps))
                on_the_wire += 1
    assert (refused, on_the_wire) == {"3-over-2": (4, 2), "4-over-1": (16, 8)}[scope]


@pytest.mark.parametrize("scope", sorted(_SCOPES))
def test_an_indegree_out_of_range_is_refused_where_the_block_is_made(scope):
    block, truth = _scope(scope)[-1]
    shared = _shared(block, truth)
    n = block.txn_count
    lengths = shared.shared_indegree
    for j in range(n):
        for bad in (-1, n, n + 1, 2**32, 1.0, True, "0"):
            message = f"^indegree {re.escape(repr(bad))} for transaction {j} out of range$"
            # the first bad entry is named, whatever follows it
            for indegree in (
                lengths[:j] + (bad,) + lengths[j + 1 :],
                lengths[:j] + (bad,) + (-1,) * (n - j - 1),
            ):
                with pytest.raises(ValueError, match=message):
                    Block(shared.transactions, indegree)
                with pytest.raises(ValueError, match=message):
                    replace(shared, shared_indegree=indegree)


@pytest.mark.parametrize("scope", sorted(_SCOPES))
def test_every_honest_block_plans_and_runs_its_brute_force_dag(scope):
    for block, truth in _scope(scope):
        edges = [(i, j) for j, preds in enumerate(truth) for i in preds]
        for declared in (tuple(tuple(reversed(deps)) for deps in truth), truth):
            shared = _shared(block, declared)
            assert validate_dag(shared) is HONEST
            dag = dag_from_shared(shared)
            assert dag.preds == truth
        for workers in (1, 2):  # the exact lists', wrapped as they are
            report = execute_block_parallel(
                shared, dag, StateStore(), workers, processor=lambda txn, store: True
            )
            assert_exactly_once(report.schedule, block.txn_count)
            assert_topological(report.schedule, edges)


def test_a_dependency_out_of_range_is_refused_where_its_transaction_is_made():
    for block, truth in _scope("4-over-1"):
        for j, (txn, preds) in enumerate(zip(block.transactions, truth)):
            for bad, at in itertools.product((-1, j, j + 1), range(len(preds) + 1)):
                deps = preds[:at] + (bad,) + preds[at:]
                message = f"^transaction {j} declares invalid dependency {bad}$"
                with pytest.raises(ValueError, match=message):
                    Transaction(j, txn.read_set, txn.write_set, txn.payload, deps)
                with pytest.raises(ValueError, match=message):
                    _shared(block, truth[:j] + (deps,) + truth[j + 1 :])


def test_a_dependency_not_below_its_transaction_is_refused_on_the_wire():
    # a chain of 4, each transaction's list holding every lower index
    block = block_from_ops([intkey_set("k", v) for v in range(4)])
    truth = tuple(tuple(range(j)) for j in range(4))
    assert brute_force_dag(block).preds == truth
    assert parse_block(unchecked_wire(block, truth)) == _shared(block, truth)
    for j, preds in enumerate(truth):
        for bad, at in itertools.product((j, j + 1, 2**32 - 1), range(len(preds) + 1)):
            deps = preds[:at] + (bad,) + preds[at:]
            data = unchecked_wire(block, truth[:j] + (deps,) + truth[j + 1 :])
            with pytest.raises(
                MalformedBlockError, match=f"^transaction {j} declares dependency {bad} not below it$"
            ):
                parse_block(data)
