"""Seeded input generator for the benchmark workloads.

Independent of the package on purpose: it draws from Python's own
``random.Random`` (seeded with a ``"<workload>:<seed>"`` string, which is
stable across Python builds), never from ``cbceval.rng``, so a change to the
package cannot change the inputs it is measured on. The program only ever
sees the CSV and JSON files written here.

Candidates are drawn around latent archetypes: each archetype has a mean
rating per attribute, and each candidate rounds a Gaussian draw around its
archetype's means to an integer rating in 1..10. The aggregate constraints
rating is uniform on 1..10, independent of the archetype. The archetypes
belong to the workload and do not depend on the seed; the seed draws the
sample of candidates, the link pairs and the constraints ratings. So every seed poses the same
problem at the same size, and run-to-run spread comes from the program and
the machine rather than from a different mixture on each seed.
"""

import json
import math
import random
from dataclasses import dataclass, field

KEY_FEATURES = (
    "reusability",
    "customizability",
    "scalability",
    "availability",
    "data_management",
    "pay_per_use",
)
SCALE_MIN, SCALE_MAX = 1, 10


@dataclass(frozen=True)
class Workload:
    """What one workload generates and how the program is invoked on it."""

    name: str
    n: int
    k: int | None  # passed as --k; None lets silhouette pick k
    attributes: tuple[str, ...]
    archetypes: int
    mean_range: tuple[float, float]  # archetype means are uniform on this range
    noise_sd: float
    spec: dict  # constraint spec without the seeded link pairs
    must_link: int = 0
    cannot_link: int = 0
    max_size_slack: float | None = None  # max_cluster_size = ceil(slack * n / k)
    weights: dict | None = None  # scoring weights file, --weights
    # user_spec fields bridged onto same-named dataset columns, with the
    # comparator the program applies (cost fields <=, capacity fields >=)
    bridged: dict = field(default_factory=dict)
    # False: the ratings and link pairs come from a fixed stream and the seed
    # draws only the constraints column. Greedy constrained assignment runs
    # 21 to 100 iterations on different samples of one mixture, which would
    # make a run's time a property of its sample rather than of the program.
    seeded_points: bool = True


WORKLOADS = {
    "screen": Workload(
        name="screen",
        n=20000,
        k=8,
        attributes=(*KEY_FEATURES, "budget_per_instance", "trial_period"),
        archetypes=3,
        mean_range=(3.5, 7.5),
        noise_sd=2.4,
        spec={
            "feasibility_threshold": 5,
            "distance_weights": {"budget_per_instance": 0.5, "trial_period": 0.5},
            "existential": [
                {"attribute": "scalability", "op": ">=", "threshold": 9, "min_count": 20},
                {"attribute": "availability", "op": ">", "threshold": 7, "min_count": 100},
            ],
            "user_spec": {
                "parallel_instances": 4,
                "max_instances": 16,
                "total_work": 1000,
                "min_workload_per_instance": 10,
                "budget_per_instance": 7,
                "deadline": 30,
                "budget_class": "medium",
                "trial_period": 3,
            },
        },
        weights={"reusability": 2.0, "scalability": 1.5, "pay_per_use": 0.5},
        bridged={"budget_per_instance": "<=", "trial_period": ">="},
    ),
    "linked": Workload(
        name="linked",
        n=5000,
        k=8,
        attributes=KEY_FEATURES,
        archetypes=3,
        mean_range=(3.5, 7.5),
        noise_sd=2.4,
        spec={"feasibility_threshold": 6},
        must_link=400,
        cannot_link=40,
        max_size_slack=1.1,
        seeded_points=False,
    ),
    "autok": Workload(
        name="autok",
        n=1500,
        k=None,
        attributes=KEY_FEATURES,
        archetypes=2,
        mean_range=(2.0, 9.0),
        noise_sd=1.0,
        spec={"feasibility_threshold": 5.5},
    ),
}


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    ids: tuple[str, ...]
    ratings: tuple[tuple[int, ...], ...]  # per candidate, in attribute order
    constraints: tuple[int, ...]
    spec: dict  # the full constraint spec as written

    def csv_text(self) -> str:
        """Dataset CSV; the constraints column comes last, so the text is
        already in the program's canonical serialization."""
        lines = [",".join(("id", *self.workload.attributes, "constraints"))]
        for cid, row, c in zip(self.ids, self.ratings, self.constraints):
            lines.append(",".join((cid, *map(str, row), str(c))))
        return "\n".join(lines) + "\n"

    def spec_text(self) -> str:
        return json.dumps(self.spec, indent=2) + "\n"


def _archetype_means(workload: "Workload") -> list[list[float]]:
    rng = random.Random(f"{workload.name}:archetypes")
    lo, hi = workload.mean_range
    return [[rng.uniform(lo, hi) for _ in workload.attributes] for _ in range(workload.archetypes)]


def _rating(rng: random.Random, mean: float, sd: float) -> int:
    return min(SCALE_MAX, max(SCALE_MIN, round(rng.gauss(mean, sd))))


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def generate(workload: Workload, seed: int) -> Inputs:
    means = _archetype_means(workload)
    # unequal archetype shares, so a size bound has a large cluster to bind
    shares = [1.0 + 0.5 * i / max(1, workload.archetypes - 1) for i in range(workload.archetypes)]
    rng = random.Random(f"{workload.name}:{seed}")
    points = rng if workload.seeded_points else random.Random(f"{workload.name}:points")

    # Fixed archetype counts, in seeded order, so every seed has the same mix.
    bounds = [round(workload.n * sum(shares[:a]) / sum(shares)) for a in range(workload.archetypes + 1)]
    archetype_of = [a for a in range(workload.archetypes) for _ in range(bounds[a], bounds[a + 1])]
    points.shuffle(archetype_of)
    ids = [f"C{i:05d}" for i in range(workload.n)]
    ratings = [tuple(_rating(points, m, workload.noise_sd) for m in means[a]) for a in archetype_of]
    constraints = [rng.randint(SCALE_MIN, SCALE_MAX) for _ in ids]

    spec = json.loads(json.dumps(workload.spec))
    if workload.must_link or workload.cannot_link:
        by_archetype: dict[int, list[int]] = {}
        for i, a in enumerate(archetype_of):
            by_archetype.setdefault(a, []).append(i)
        parent = list(range(workload.n))
        must: set[tuple[int, int]] = set()
        while len(must) < workload.must_link:
            pool = by_archetype[points.randrange(workload.archetypes)]
            a, b = sorted(points.sample(pool, 2))
            if (a, b) not in must:
                must.add((a, b))
                parent[_find(parent, b)] = _find(parent, a)
        cannot: set[tuple[int, int]] = set()
        while len(cannot) < workload.cannot_link:
            a, b = sorted(points.sample(range(workload.n), 2))
            if archetype_of[a] != archetype_of[b] and _find(parent, a) != _find(parent, b):
                cannot.add((a, b))
        spec["must_link"] = [[ids[a], ids[b]] for a, b in sorted(must)]
        spec["cannot_link"] = [[ids[a], ids[b]] for a, b in sorted(cannot)]
    if workload.max_size_slack is not None:
        spec["max_cluster_size"] = math.ceil(workload.max_size_slack * workload.n / workload.k)

    return Inputs(workload, tuple(ids), tuple(ratings), tuple(constraints), spec)
