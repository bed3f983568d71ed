"""Synthetic block generation with a controllable conflict level.

The dependency knob works by hot-address pooling, and that definition is
ours: ``dependency_pct`` is the percentage of transactions whose primary
address is drawn from a small shared pool (about one pool address per four
hot transactions, assigned round-robin), while the rest get fresh unique
addresses. At 0 the non-voting families produce conflict-free blocks; at
100 every transaction shares its address with at least one other. Voting is
the exception on both ends — its coarse global registries make any two
voting transactions conflict regardless — so for voting the knob only
varies the voter/party pool sizes.

The conflict metrics come from the DAG builder's one per-address pass
(``dag.address_pass``) and fill no DAG: cp2 from the lengths of the
predecessor sets, cp1 and cp3 from the per-address writer and accessor
lists at O(accesses), never from a walk over the edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import families
from .dag import AccessIndex, address_pass
from .model import Block

FAMILY_CHOICES = families.FAMILIES + ("mixed",)


@dataclass(frozen=True)
class WorkloadSpec:
    family: str
    txns_per_block: int
    num_blocks: int = 1
    dependency_pct: int = 0
    rng_seed: int = 0

    def validate(self) -> None:
        if self.family not in FAMILY_CHOICES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILY_CHOICES}")
        if self.txns_per_block < 1:
            raise ValueError("txns_per_block must be >= 1")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if not 0 <= self.dependency_pct <= 100:
            raise ValueError("dependency_pct must be in [0, 100]")


@dataclass(frozen=True)
class ConflictMetrics:
    """The three block-level conflict measures.

    cp1: fraction of transactions with at least one dependency;
    cp2: edges over all possible pairs; cp3: weakly connected components.
    """

    cp1: float
    cp2: float
    cp3: int


def _hot_positions(n: int, pct: int, rng: random.Random) -> tuple[set[int], list[str]]:
    """Pick which transactions are hot and the pool addresses they share."""
    hot_n = round(n * pct / 100)
    if hot_n == 0:
        return set(), []
    pool_size = max(1, hot_n // 4)
    positions = set(rng.sample(range(n), hot_n))
    pool = [f"h{k}" for k in range(pool_size)]
    return positions, pool


def _primary_names(n: int, pct: int, rng: random.Random) -> tuple[list[str], list[str]]:
    """Per-position primary address name: pooled for hot, unique otherwise."""
    hot, pool = _hot_positions(n, pct, rng)
    names = []
    hot_seen = 0
    for pos in range(n):
        if pos in hot:
            names.append(pool[hot_seen % len(pool)])
            hot_seen += 1
        else:
            names.append(f"c{pos}")
    return names, pool


def _gen_wallet(n: int, pct: int, rng: random.Random) -> list[families.FamilyOp]:
    names, pool = _primary_names(n, pct, rng)
    ops = []
    for pos in range(n):
        account = names[pos]
        roll = rng.random()
        if roll < 0.55:
            ops.append(families.wallet_deposit(account, rng.randrange(1, 1000)))
        elif roll < 0.70:
            ops.append(families.wallet_create(account))
        elif roll < 0.85:
            ops.append(families.wallet_withdraw(account, rng.randrange(1, 500)))
        else:
            # Hot transfers stay inside the pool so conflict structure
            # follows the knob; cold ones get a fresh counterparty.
            if account in pool and len(pool) > 1:
                dst = pool[(pool.index(account) + 1) % len(pool)]
            else:
                dst = f"c{pos}t"
            ops.append(families.wallet_transfer(account, dst, rng.randrange(1, 200)))
    return ops


def _gen_intkey(n: int, pct: int, rng: random.Random) -> list[families.FamilyOp]:
    names, _ = _primary_names(n, pct, rng)
    ops = []
    for pos in range(n):
        key = names[pos]
        roll = rng.random()
        if roll < 0.5:
            ops.append(families.intkey_set(key, rng.randrange(0, 10000)))
        elif roll < 0.8:
            ops.append(families.intkey_inc(key, rng.randrange(1, 100)))
        else:
            ops.append(families.intkey_dec(key, rng.randrange(1, 100)))
    return ops


def _gen_voting(n: int, pct: int, rng: random.Random) -> list[families.FamilyOp]:
    # The knob shrinks both registries; edges are total regardless.
    party_pool = [f"p{k}" for k in range(max(1, 2 + (100 - pct) // 10))]
    voter_pool = [f"v{k}" for k in range(max(2, round(n * (0.2 + 0.8 * (100 - pct) / 100))))]
    ops = []
    parties_created = 0
    voters_added = 0
    for pos in range(n):
        if parties_created < len(party_pool) and (pos < 2 or rng.random() < 0.15):
            ops.append(families.voting_create_party(party_pool[parties_created]))
            parties_created += 1
        elif voters_added < len(voter_pool) and rng.random() < 0.4:
            ops.append(families.voting_add_voter(voter_pool[voters_added]))
            voters_added += 1
        else:
            voter = rng.choice(voter_pool)
            party = rng.choice(party_pool)
            ops.append(families.voting_vote(voter, party))
    return ops


def _gen_insurance(n: int, pct: int, rng: random.Random) -> list[families.FamilyOp]:
    names, _ = _primary_names(n, pct, rng)
    created: set[str] = set()
    ops = []
    for pos in range(n):
        record_id = names[pos]
        fields = {
            "name": f"user{rng.randrange(1000)}",
            "street": f"{rng.randrange(100)} main st",
            "city": f"city{rng.randrange(50)}",
        }
        if record_id not in created:
            ops.append(families.insurance_create(record_id, fields))
            created.add(record_id)
        else:
            roll = rng.random()
            if roll < 0.6:
                ops.append(families.insurance_update(record_id, fields))
            else:
                ops.append(families.insurance_read(record_id))
    return ops


_GENERATORS = {
    families.WALLET: _gen_wallet,
    families.INTKEY: _gen_intkey,
    families.VOTING: _gen_voting,
    families.INSURANCE: _gen_insurance,
}


def _gen_mixed(n: int, pct: int, rng: random.Random) -> list[families.FamilyOp]:
    tags = [families.FAMILIES[k % 4] for k in range(n)]
    rng.shuffle(tags)
    per_family_ops = {
        family: iter(_GENERATORS[family](tags.count(family), pct, rng))
        for family in families.FAMILIES
        if tags.count(family)
    }
    return [next(per_family_ops[tag]) for tag in tags]


def generate_block(spec: WorkloadSpec, sequence: int = 0) -> Block:
    """Deterministically generate one block; same (seed, sequence) -> same block."""
    spec.validate()
    rng = random.Random(f"{spec.rng_seed}:{sequence}")
    n = spec.txns_per_block
    if spec.family == "mixed":
        ops = _gen_mixed(n, spec.dependency_pct, rng)
    else:
        ops = _GENERATORS[spec.family](n, spec.dependency_pct, rng)
    return families.block_from_ops(ops)


def generate_blocks(spec: WorkloadSpec) -> list[Block]:
    return [generate_block(spec, sequence) for sequence in range(spec.num_blocks)]


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the components of a and b; True when they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _metrics_from_pass(index: AccessIndex) -> ConflictMetrics:
    """cp1/cp2/cp3 from one ``address_pass`` result, at O(accesses).

    On an address that has a writer, each writer conflicts with every other
    accessor and each reader with some other writer, so an accessor list of
    two or more is connected and every member has an edge; every edge lies
    inside such a list. cp1 and cp3 therefore come from one merge per access
    into its list's first member, and only cp2 reads the full sets.
    """
    preds, accessors = index.preds, index.accessors
    n = len(preds)
    if n == 0:
        return ConflictMetrics(cp1=0.0, cp2=0.0, cp3=0)
    touched: set[int] = set()
    uf = _UnionFind(n)
    components = n
    for address in index.writers:
        group = accessors[address]
        if len(group) < 2:
            continue
        touched.update(group)
        first = group[0]
        for k in group[1:]:
            if uf.union(first, k):
                components -= 1
    possible = n * (n - 1) // 2
    cp2 = sum(map(len, preds)) / possible if possible else 0.0
    return ConflictMetrics(cp1=len(touched) / n, cp2=cp2, cp3=components)


def conflict_metrics(block: Block) -> ConflictMetrics:
    """Compute cp1/cp2/cp3 from the block's one per-address pass."""
    return _metrics_from_pass(address_pass(block))


def load_workload_spec(path: str) -> WorkloadSpec:
    """Read a spec from a key=value file (blank lines and # comments allowed)."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    try:
        spec = WorkloadSpec(
            family=values.pop("family"),
            txns_per_block=int(values.pop("txns_per_block")),
            num_blocks=int(values.pop("num_blocks", "1")),
            dependency_pct=int(values.pop("dependency_pct", "0")),
            rng_seed=int(values.pop("rng_seed", "0")),
        )
    except KeyError as exc:
        raise ValueError(f"missing required key: {exc.args[0]}") from None
    if values:
        raise ValueError(f"unknown keys: {sorted(values)}")
    spec.validate()
    return spec
