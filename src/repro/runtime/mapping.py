"""Task-to-core placement on the mesh.

Paper Section VI: "We have also managed to achieve minimal delay in the
communication between cores in Epiphany because of the custom mapping
of the parallel implementation, which avoids transactions with distant
cores."  This module makes that custom mapping reproducible: a task
graph with per-edge traffic weights, placement strategies (naive linear
vs greedy communication-aware), and the metrics the Fig. 9 analogue
benchmark reports (weighted byte-hops, worst-link congestion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

Coord = tuple[int, int]


@dataclass(frozen=True)
class TaskGraph:
    """A set of named tasks and weighted directed communication edges.

    ``edges[(a, b)]`` is the traffic weight (bytes per unit of work)
    flowing from task ``a`` to task ``b``.
    """

    tasks: tuple[str, ...]
    edges: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = set(self.tasks)
        if len(names) != len(self.tasks):
            raise ValueError("duplicate task names")
        for (a, b), w in self.edges.items():
            if a not in names or b not in names:
                raise ValueError(f"edge ({a}, {b}) references unknown task")
            if w < 0:
                raise ValueError(f"negative edge weight on ({a}, {b})")


@dataclass(frozen=True)
class Placement:
    """An assignment of tasks to mesh coordinates."""

    graph: TaskGraph
    coords: dict[str, Coord]
    mesh_rows: int
    mesh_cols: int

    def __post_init__(self) -> None:
        missing = set(self.graph.tasks) - set(self.coords)
        if missing:
            raise ValueError(f"unplaced tasks: {sorted(missing)}")
        seen: dict[Coord, str] = {}
        for t, c in self.coords.items():
            if not (0 <= c[0] < self.mesh_rows and 0 <= c[1] < self.mesh_cols):
                raise ValueError(f"task {t} placed off-mesh at {c}")
            if c in seen:
                raise ValueError(f"tasks {seen[c]} and {t} share core {c}")
            seen[c] = t

    def core_id(self, task: str) -> int:
        r, c = self.coords[task]
        return r * self.mesh_cols + c

    def hops(self, a: str, b: str) -> int:
        ca, cb = self.coords[a], self.coords[b]
        return abs(ca[0] - cb[0]) + abs(ca[1] - cb[1])

    def weighted_hops(self) -> float:
        """Total traffic-weighted hop count -- lower is better."""
        return sum(
            w * self.hops(a, b) for (a, b), w in self.graph.edges.items()
        )

    def max_link_load(self) -> float:
        """Worst per-link traffic under XY routing (congestion proxy).

        This answers the paper's correlator-congestion question: the
        six beam-interpolator flows converge on one core, so the links
        adjacent to it carry the most traffic.
        """
        load: dict[tuple[Coord, Coord], float] = {}
        for (a, b), w in self.graph.edges.items():
            r, c = self.coords[a]
            dst = self.coords[b]
            while c != dst[1]:
                step = 1 if dst[1] > c else -1
                key = ((r, c), (r, c + step))
                load[key] = load.get(key, 0.0) + w
                c += step
            while r != dst[0]:
                step = 1 if dst[0] > r else -1
                key = ((r, c), (r + step, c))
                load[key] = load.get(key, 0.0) + w
                r += step
        return max(load.values(), default=0.0)


def remap_placement(
    placement: Placement, dead_cores: tuple[int, ...] | list[int]
) -> tuple[Placement, dict[str, tuple[int, int]]]:
    """Re-map tasks off dead cores onto free surviving cells.

    Graceful degradation (``docs/architecture.md`` §11): for a core
    that crashed before the run started (a *dead-on-arrival* fault in
    a :class:`~repro.faults.plan.FaultPlan`), the paper's Fig. 9
    autofocus mapping keeps three cores free -- so the dead core's
    task can move onto a survivor at the cost of longer routes.

    Each displaced task (in graph declaration order, deterministic)
    takes the free surviving cell minimising its traffic-weighted hop
    count to its current neighbours; ties break row-major.  Returns
    the new placement plus ``{task: (old_core, new_core)}`` for the
    moved tasks.  Raises
    :class:`~repro.faults.report.FaultReport` (kind ``"unmappable"``)
    when a displaced task has no surviving free cell to go to.
    """
    dead = set(dead_cores)
    if not dead:
        return placement, {}
    rows, cols = placement.mesh_rows, placement.mesh_cols

    def cid(cell: Coord) -> int:
        return cell[0] * cols + cell[1]

    coords = dict(placement.coords)
    occupied = set(coords.values())
    free = [
        (r, c)
        for r in range(rows)
        for c in range(cols)
        if (r, c) not in occupied and cid((r, c)) not in dead
    ]
    victims = [
        t for t in placement.graph.tasks if cid(coords[t]) in dead
    ]
    moved: dict[str, tuple[int, int]] = {}
    for task in victims:
        if not free:
            from repro.faults.report import FaultReport

            raise FaultReport(
                kind="unmappable",
                core=cid(coords[task]),
                detail=(
                    f"task {task!r} lost core {cid(coords[task])} and no "
                    f"surviving free core remains "
                    f"(dead cores: {sorted(dead)})"
                ),
            )
        edges = placement.graph.edges

        def cost(cell: Coord, t: str = task) -> float:
            total = 0.0
            for (a, b), w in edges.items():
                if a == t:
                    peer = coords[b]
                elif b == t:
                    peer = coords[a]
                else:
                    continue
                total += w * (
                    abs(cell[0] - peer[0]) + abs(cell[1] - peer[1])
                )
            return total

        best = min(free, key=lambda cell: (cost(cell), cell))
        free.remove(best)
        old = coords[task]
        coords[task] = best
        moved[task] = (cid(old), cid(best))
    return Placement(placement.graph, coords, rows, cols), moved


def linear_place(
    graph: TaskGraph, mesh_rows: int, mesh_cols: int
) -> Placement:
    """Naive placement: tasks in declaration order, row-major cores."""
    if len(graph.tasks) > mesh_rows * mesh_cols:
        raise ValueError("more tasks than cores")
    coords = {
        t: (i // mesh_cols, i % mesh_cols) for i, t in enumerate(graph.tasks)
    }
    return Placement(graph, coords, mesh_rows, mesh_cols)


def greedy_place(
    graph: TaskGraph, mesh_rows: int, mesh_cols: int, passes: int = 4
) -> Placement:
    """Communication-aware placement by greedy pairwise improvement.

    Starts from the linear placement and repeatedly applies the best
    single swap (including moves to free cores) until no swap reduces
    the weighted hop count, up to ``passes`` sweeps.  Deterministic.
    """
    placement = linear_place(graph, mesh_rows, mesh_cols)
    coords = dict(placement.coords)
    all_cells = [
        (r, c) for r in range(mesh_rows) for c in range(mesh_cols)
    ]

    def cost(assign: dict[str, Coord]) -> float:
        return sum(
            w
            * (
                abs(assign[a][0] - assign[b][0])
                + abs(assign[a][1] - assign[b][1])
            )
            for (a, b), w in graph.edges.items()
        )

    current = cost(coords)
    for _ in range(passes):
        improved = False
        occupied = {c: t for t, c in coords.items()}
        for task in graph.tasks:
            best_delta = 0.0
            best_cell = None
            for cell in all_cells:
                if cell == coords[task]:
                    continue
                trial = dict(coords)
                other = occupied.get(cell)
                if other is not None:
                    trial[other] = coords[task]
                trial[task] = cell
                delta = cost(trial) - current
                if delta < best_delta - 1e-12:
                    best_delta = delta
                    best_cell = cell
            if best_cell is not None:
                other = occupied.get(best_cell)
                old = coords[task]
                if other is not None:
                    coords[other] = old
                    occupied[old] = other
                else:
                    del occupied[old]
                coords[task] = best_cell
                occupied[best_cell] = task
                current += best_delta
                improved = True
        if not improved:
            break
    return Placement(graph, coords, mesh_rows, mesh_cols)
