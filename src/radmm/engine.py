"""The stacked engine: synchronous relaxed ADMM rounds on whole-graph arrays.

`run`, the Monte Carlo harness in `experiments` and stability sweeps all
iterate here. A round performs the arithmetic of the node-local
specification in `core` (`sync_round`), on arrays in the stacked layouts
of `reference`, which `core.node_states` reads as node-local states; the
tests check that its error traces and recorded flat iterates are bitwise
equal to a loop of `sample_mask`, `sync_round` and `relative_error`. No
command that runs the engine loads `core`.

The engine is built once per problem and its rhos, solves the problem
unless it is handed the solution, and advances batches of runs, one row
per (schedule, alpha, rho, stop tolerance); each command builds one. `run`
is a batch of one, a Monte Carlo hands it one batch per (alpha, rho), and
a sweep its whole grid. Its working set per round is bounded by two byte
budgets, whatever the batch size: large batches run in blocks of rows, and
masks are drawn a budgeted number of rounds at a time.
Every run starts from all-zero x and z, is scored every round against the
centralized optimum, and loses packets on exactly the graph's directed
edges. Every run of a batch is bitwise equal to the same run alone.
The engine is built per class, one per group of the problem's stacked
`local_blocks` (one degree and cost height): its index tables come from
`graph.stacked_slots`, and a class's local systems are factored at once,
bitwise equal to one `core.QuadraticLocalSolver` per node; the centralized
solve assembles its normal equations from the same blocks.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._record import Frozen, Record
from .graph import stacked_slots
from .lossy import LossSchedule, draw_block, stack_schedules
from .problem import PartitionProblem, Solution, positive_definite, solve_centralized

DIVERGENCE_NORM = 1e8
_Z_CHECK_EVERY = 64
# The engine's working set: the uint64 hashes of one mask draw, and the
# state buffers of one block of rows, stay within these many bytes.
_MASK_BYTES = 1 << 17
_BLOCK_BYTES = 1 << 20


class SingularLocalSystemError(ValueError):
    """The node-local subproblem has no unique minimizer.

    With a positive penalty this can only happen on an isolated node whose
    own cost is rank deficient.
    """


def _check_alpha(alpha: float) -> None:
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def _check_rho(rho: float) -> None:
    if not 0 < rho < np.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")


class AlgorithmParams(Frozen):
    """Step size and penalty of the relaxed scheme.

    Both must be finite, and rho positive; the engine applies the same
    rules. alpha in (0, 1) is the provably convergent region; values
    outside it are accepted (stability sweeps probe them) and are reported
    by `guaranteed_convergent`.
    """

    def __init__(self, alpha: float, rho: float):
        _check_alpha(alpha)
        _check_rho(rho)
        self.__dict__.update(alpha=alpha, rho=rho)

    @property
    def guaranteed_convergent(self) -> bool:
        return 0.0 < self.alpha < 1.0


def _error_sum(x: np.ndarray, ref: np.ndarray, starts: np.ndarray, norms: np.ndarray):
    """Sum over node blocks of ||x block - ref block|| / ||ref block||.

    x and ref are flat in the `reference` x layout and block i starts at
    starts[i]; x may also hold one such flat iterate per row, which gives
    one sum per row. Both `relative_error` and the stacked engine compute
    the error here, so the two agree bitwise on equal iterates.
    """
    d = x - ref
    d *= d
    return (np.sqrt(np.add.reduceat(d, starts, axis=-1)) / norms).sum(axis=-1)


def _block_norms(ref: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each block's norm for `_error_sum`; ValueError on a zero one (ratio undefined)."""
    norms = np.array([float(np.linalg.norm(block)) for block in np.split(ref, starts[1:])])
    if not norms.all():
        raise ValueError(f"optimum block of node {np.flatnonzero(norms == 0)[0]} has zero norm")
    return norms


class RunTrace(Record):
    """Per-round record of one run.

    errors[t] is the relative error after round t+1; diverged marks early
    termination on a non-finite or runaway state. When states are recorded,
    xs[t] is x after round t+1 and z is z after the last round, flat in the
    `reference` layouts; otherwise both are None.
    """

    def __init__(
        self,
        errors: np.ndarray,
        diverged: bool,
        xs: np.ndarray | None = None,
        z: np.ndarray | None = None,
    ):
        self.errors = errors
        self.diverged = diverged
        self.xs = xs
        self.z = z

    @property
    def rounds_executed(self) -> int:
        return len(self.errors)


class _StackedEngine:
    """`sync_round` on whole-graph arrays, for quadratic costs; what `run` uses.

    Built once per problem and its rhos, each positive and finite as
    `AlgorithmParams` requires (ValueError otherwise, before any arithmetic),
    and reusable across runs and batches. Every run starts from all-zero x
    and z and is scored against `self.solution`: the one it was given, else
    `solve_centralized(p)`. A loss schedule must cover exactly `self.edges`.
    A run's flat buffer holds z in the `reference` layout, viewed as (edges,
    2, n) with row e the slot pair of directed edge e, then an n-wide zero
    pad and, per node, the sum of its z_in_self, which heads the linear term
    of its x-update. x is flat in the `reference` layout too. A batch of
    runs stacks these buffers as rows.
    The gather tables and the error reference (x* gathered by slot owner)
    are built from `graph.stacked_slots`, and each class (one `local_blocks`
    group: the nodes of one degree and cost height) is factored in one
    stacked `positive_definite` check and inv for all rhos.

    Every arithmetic step is the one `sync_round` takes, in the same order:
    the head sums add z_in_self in ascending neighbor order starting from
    zero, each node's x is `inv @ (base + linear)` (batched over the nodes of
    one class; numpy hands each item of a stacked matmul to the same BLAS
    gemv as a single `inv @ v`), messages are 2 rho x - z, and a delivered
    edge relaxes to (1 - alpha) z + alpha q, with the row's own alpha and rho
    (elementwise products). Runs are therefore bitwise equal to the node-local
    rounds, which the tests check. A closed form x = c + K z would be faster
    to state but is not bitwise equal.
    """

    def __init__(
        self, p: PartitionProblem, rhos: Sequence[float], solution: Solution | None = None
    ):
        g, n = p.graph, p.dim
        self.n, self.rhos = n, tuple(dict.fromkeys(map(float, rhos)))
        for rho in self.rhos:  # AlgorithmParams' rule, before any arithmetic
            _check_rho(rho)
        self.edges = g.directed_edges()
        slots = stacked_slots(g)
        sender, rev, self_slot = slots.sender, slots.rev, slots.self_slot
        # The solve and the factoring below read one computation of the
        # blocks. The Hessian blocks are as large as the inverses, so each
        # class's are freed once factored, before the next class's inverses
        # are made.
        groups = p.local_blocks()
        self.solution = solve_centralized(p, groups) if solution is None else solution
        # the optimum in the x layout: every slot holds its owner's x*
        ref, starts = np.array(self.solution.x_star)[slots.owner].ravel(), n * self_slot
        self.reference = ref, starts, _block_norms(ref, starts)
        groups.reverse()  # popped in (degree, height) order
        e_count, nodes = len(self.edges), np.arange(g.node_count)
        deg = np.bincount(sender, minlength=g.node_count)
        self.x_size = n * (e_count + g.node_count)
        self.z_shape = (e_count, 2, n)
        self.pad_at = pad = e_count * 2 * n
        self.head_at = head = pad + n
        self.row_size = head + n * g.node_count  # floats in one run's buffer
        col = np.arange(n)

        # head sums: the slabs of [0, z_in_self of each in-edge, zero pads up
        # to the largest degree] added in turn give the spec's 0 + z_1 + ...
        # (a pad adds +0.0, which leaves such a sum unchanged). numpy reduces
        # a non-innermost axis slab by slab, in order; it sums pairwise only
        # along the innermost axis, which here spans the nodes.
        terms = np.full((deg.max() + 1, g.node_count), pad, dtype=np.intp)
        # e = (j, i) is j's rank-th out-edge, and rev[e] its rank-th in-edge
        terms[np.arange(e_count) - slots.out_at[sender] + 1, sender] = 2 * n * rev + n
        self.head_terms = terms[..., None] + col
        # where each slot's linear term starts: the node's head sum for
        # x_self, z_in_neigh of the in-edge for x_neigh
        slot_linear = np.empty(e_count + g.node_count, dtype=np.intp)
        slot_linear[self_slot] = head + n * nodes
        slot_linear[slots.edge_slot] = 2 * n * rev
        # The x-update runs in class-major order, one class per group of
        # `local_blocks` (one degree and cost height), so one matmul solves
        # a class. Each class is also factored at once: numpy hands each
        # item of a stacked matmul, cholesky or inv to the same BLAS/LAPACK
        # call as a single matrix, so the inverses are bitwise QuadraticLocalSolver's.
        self.classes = []  # (inv stack per rho, span in class-major order, batch shape)
        class_slots, bases = [], []
        at = 0
        while groups:
            members, hess, _, base = groups.pop()
            k, d = len(members), deg[members[0]]
            m = n * (d + 1)
            scale = np.ones(m)
            scale[:n] = d
            # (rhos, k, m, m): the class's systems at every rho
            systems = hess + np.multiply.outer(self.rhos, np.diag(scale))[:, None]
            if not positive_definite(systems):
                raise SingularLocalSystemError(
                    "local subproblem is singular (isolated node with rank-deficient cost?)"
                )
            self.classes.append((list(np.linalg.inv(systems)), slice(at, at + k * m), (k, m, 1)))
            bases.append(base)
            class_slots.append((self_slot[members][:, None] + np.arange(d + 1)).ravel())
            at += k * m
            del hess, systems
        self.base = np.concatenate(bases, axis=None)
        class_slots = np.concatenate(class_slots)
        self.linear = (slot_linear[class_slots, None] + col).ravel()
        from_slot = np.empty_like(class_slots)
        from_slot[class_slots] = np.arange(len(class_slots))
        self.from_class = (n * from_slot[:, None] + col).ravel()
        # message on e = (j, i): [2 rho x_self - z_in_self[i],
        # 2 rho x_neigh[i] - z_in_neigh[i]] of node j, whose z row is edge (i, j)
        self.message_x = n * np.stack([self_slot[sender], slots.edge_slot], axis=1)[..., None] + col
        self.message_z = 2 * n * rev[:, None, None] + np.array([[n], [0]]) + col

    def run(
        self,
        runs: Sequence[tuple[LossSchedule | None, float, float, float | None]],
        k_max: int,
        record_states: bool = False,
    ) -> list[RunTrace]:
        """`run` for every (schedule, alpha, rho, stop_tol) at once: one
        RunTrace each, in input order.

        Each run owns one row of a (runs, buffer) array, and a round does for
        all rows what it does for one: the same gathers, each item of the
        broadcast matmul goes to the same gemv, and the row's alpha and rho
        scale only its own q and z. Rows are kept in (rho, run) order, so
        each class takes one matmul per rho present against that
        rho's inverses. Every trace is therefore bitwise equal to that
        run's own `run`. alpha must be finite, rho one of the engine's and
        stop_tol None (no stop) or positive; every run is checked before any
        round. A run that diverges, or whose error falls below its stop_tol,
        is frozen on that round and its row dropped; errors are taken
        against `self.solution`.
        With record_states, each trace also holds its own copies of its x
        after every round and of its last z.

        The working set of a round is bounded whatever the batch size: rows
        whose buffers together exceed _BLOCK_BYTES run as consecutive blocks
        of rows that fit, and each `draw_block` call draws as many rounds
        of the lossy rows' masks (1 to 64) as keep its uint64 hashes within
        _MASK_BYTES; a dropped row's part of a draw is dropped with it.
        Runs are independent and masks a pure function of (seed, round,
        edge), so neither bound changes a bit of any trace.
        """
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        rho_at = {rho: i for i, rho in enumerate(self.rhos)}
        # per run: its schedule (None when it never loses a packet), alpha,
        # rho index and stop tolerance (-inf for none)
        settings = []
        for schedule, alpha, rho, tol in runs:
            if schedule is not None and schedule.edges != self.edges:
                raise ValueError("a loss schedule must cover exactly the graph's directed edges")
            _check_alpha(alpha)
            if rho not in rho_at:
                raise ValueError(f"rho {rho} is not one of the engine's {self.rhos}")
            if tol is not None and not tol > 0:
                raise ValueError(f"stop_tol must be None or positive, got {tol}")
            lossy = schedule is not None and not schedule.loss_free
            settings.append((schedule if lossy else None, float(alpha), rho_at[rho],
                             -np.inf if tol is None else tol))
        # Loss-free runs with one rho, alpha and stop tolerance follow one
        # trajectory: the first of them gets a row, the others share its result.
        first: dict = {}
        source = [first.setdefault((r,) if s[0] else s, r) for r, s in enumerate(settings)]
        # the runs that get a row, in (rho, run) order, in blocks of rows
        # whose buffers fit _BLOCK_BYTES
        ids = sorted(set(source), key=lambda r: (settings[r][2], r))
        size = max(1, _BLOCK_BYTES // (8 * self.row_size))
        ends = {}
        for at in range(0, len(ids), size):
            block = np.array(ids[at : at + size])
            ends.update(self._run_block(block, settings, k_max, record_states))
        traces = []
        for at, r in enumerate(source):
            errors, diverged, xs, z = ends[r]
            if xs is not None and r in source[:at]:  # a shared row's copy
                xs = xs.copy()
            traces.append(RunTrace(errors=np.concatenate(errors), diverged=diverged,
                                   xs=xs, z=None if z is None else z.copy()))
        return traces

    def _run_block(self, ids, settings, k_max, record_states) -> dict:
        """Run the runs ids, in (rho, run) order and with the settings `run`
        checked, from zero until each ends. Returns, per run, its error
        pieces, diverged flag, and with record_states its x after every
        round (copied once, into one array per run that grows in place by
        rounds within _BLOCK_BYTES) and its last z (else None and None)."""
        errors: dict = {r: [] for r in ids}  # pieces per run
        xs = {r: np.empty((0, self.x_size)) for r in ids} if record_states else {}
        grow = max(1, _BLOCK_BYTES // (8 * self.x_size * len(ids)))
        log = []  # the rows' errors, one entry a round
        ends: dict = {}
        buf = np.zeros((len(ids), self.row_size))
        # Each row's settings, read once into arrays aligned with buf's rows
        # and sliced with them where rows end: whether it loses packets, its
        # alpha, rho index and stop tolerance; and the lossy rows' hash bases
        # and thresholds, from which each mask draw is made.
        schedules, alphas, rhos, tols = zip(*(settings[r] for r in ids))
        lossy = np.array([s is not None for s in schedules])
        alphas, rhos, tols = np.array(alphas), np.array(rhos), np.array(tols)
        bases, thresholds = stack_schedules([s for s in schedules if s is not None])
        rows = 0  # rows the views below were made for
        # every row's delivery flag per z entry for rounds drawn_at ..
        # drawn_to - 1, (rows, rounds, edges * 2 n); loss-free rows deliver all
        gates, drawn_at, drawn_to = np.empty((len(ids), 0)), 0, 0
        for k in range(k_max):
            if rows != len(ids):
                # Views of the rows' state. A single row gets 1-D views, on
                # which numpy calls cost least; the axis -1 and -3 arguments
                # below address the same axes with or without the row axis.
                rows = len(ids)
                lead = (rows,) if rows > 1 else ()
                state = buf if rows > 1 else buf[0]
                z = state[..., : self.pad_at].reshape(lead + self.z_shape)
                heads = state[..., self.head_at :].reshape(lead + self.head_terms.shape[1:])
                v = np.empty(lead + (self.x_size,))
                xc = np.empty(lead + (self.x_size,))
                # (rho index, its rows) per rho present; the rows are in
                # (rho, run) order, and one rho takes the class views whole
                present, starts = np.unique(rhos, return_index=True)
                bounds = [*starts.tolist(), rows]
                spans = list(zip(present.tolist(), map(slice, bounds, bounds[1:])))
                spans = spans if len(spans) > 1 else [(spans[0][0], ...)]
                solves = []
                for invs, at, shape in self.classes:
                    v_c, x_c = v[..., at].reshape(lead + shape), xc[..., at].reshape(lead + shape)
                    solves += [(invs[i], v_c[rs], x_c[rs]) for i, rs in spans]
                relaxed = np.empty_like(z)
                # each row's alpha and rho scale its own q and z (shared ones
                # stay scalars, on which numpy calls cost least); np.unique
                # of floats would import numpy.ma, ~10 ms a command
                alpha = alphas.reshape(-1, 1, 1, 1)
                alpha = alpha if rows > 1 and (alphas != alphas[0]).any() else alphas.item(0)
                keep = 1.0 - alpha
                two_rho = 2.0 * np.take(self.rhos, rhos).reshape(-1, 1, 1, 1)
                two_rho = two_rho if len(spans) > 1 else two_rho.item(0)
            np.add.reduce(state.take(self.head_terms, axis=-1), axis=-3, out=heads)
            state.take(self.linear, axis=-1, out=v)
            v += self.base
            for inv, v_c, x_c in solves:
                np.matmul(inv, v_c, out=x_c)
            x = xc.take(self.from_class, axis=-1)
            q = x.take(self.message_x, axis=-1)
            q *= two_rho
            q -= state.take(self.message_z, axis=-1)
            q *= alpha
            if len(bases):
                if k == drawn_to:
                    # as many rounds as keep the draw's uint64 hashes within
                    # _MASK_BYTES, and at most 64, which bounds the draws a
                    # row that stops early wastes
                    drawn_at = k
                    drawn_to = k + min(64, k_max - k, max(1, _MASK_BYTES // bases.nbytes))
                    drawn = draw_block(bases, thresholds, k, drawn_to - k)
                    # one flag per z entry: copyto broadcasting an (edges, 1,
                    # 1) mask is about twice as slow as with a full-size one
                    gates = np.ones((rows, drawn_to - k, self.pad_at), dtype=bool)
                    gates[lossy] = np.repeat(drawn, 2 * self.n, axis=-1)
                np.multiply(z, keep, out=relaxed)
                relaxed += q
                np.copyto(z, relaxed, where=gates[:, k - drawn_at].reshape(z.shape))
            else:
                z *= keep
                z += q
            x_rows = x.reshape(rows, -1)
            if record_states:
                for row, r in enumerate(ids):
                    if k == len(xs[r]):
                        xs[r].resize((min(k_max, k + grow), self.x_size), refcheck=False)
                    xs[r][k] = x_rows[row]
            err = _error_sum(x, *self.reference).reshape(rows)
            log.append(err)
            # A cheap test first; the row-by-row checks run only on rounds on
            # which some run may end. NaN fails every comparison.
            check_z = (k + 1) % _Z_CHECK_EVERY == 0 and z.size
            if (
                k + 1 < k_max
                and not check_z
                and np.abs(x).max() < DIVERGENCE_NORM
                and ((tols <= err) & (err < np.inf)).all()
            ):
                continue
            ok = (np.abs(x_rows).max(axis=1) < DIVERGENCE_NORM) & (err < np.inf)
            if check_z:
                ok &= np.abs(z).reshape(rows, -1).max(axis=1) < DIVERGENCE_NORM
            done = ~ok | (err < tols)
            if k + 1 == k_max:
                done[:] = True
            if not done.any():
                continue
            block = np.array(log)
            log.clear()
            for row, r in enumerate(ids):
                errors[r].append(block[:, row])
            z_rows = z.reshape(rows, -1)
            for row in np.flatnonzero(done):
                r = ids[row]
                x_all = xs.pop(r, None)
                if x_all is not None:
                    x_all.resize((k + 1, self.x_size), refcheck=False)
                ends[r] = (errors[r], not ok[row], x_all, z_rows[row] if record_states else None)
            # the one place rows are dropped: every per-row array follows buf
            live = ~done
            bases, thresholds = bases[live[lossy]], thresholds[live[lossy]]
            buf, ids, lossy, alphas, rhos, tols, gates = (
                a[live] for a in (buf, ids, lossy, alphas, rhos, tols, gates)
            )
            if not ids.size:
                break
        return ends


def run(
    p: PartitionProblem,
    params: AlgorithmParams,
    schedule: LossSchedule | None,
    k_max: int,
    solution: Solution | None = None,
    stop_tol: float | None = None,
    record_states: bool = False,
) -> RunTrace:
    """Iterate synchronous rounds from the all-zero start and record the trajectory.

    schedule=None means every packet is delivered; otherwise the schedule
    covers exactly the graph's directed edges (ValueError otherwise). Errors
    are taken against solution, by default `solve_centralized(p)`. The trace
    is a pure function of the arguments. A non-finite coordinate or a state
    magnitude beyond DIVERGENCE_NORM stops the run with the diverged flag
    instead of raising (|x| and the error are checked every round, |z| every
    _Z_CHECK_EVERY rounds). When stop_tol is given, the run ends at the
    first round whose relative error falls below it. With record_states the
    trace also holds x after every round and the last z (see `RunTrace`).

    The rounds run on the stacked engine as a batch of one, which is bitwise
    equal to iterating `sync_round` from `initial_states`.
    """
    engine = _StackedEngine(p, (params.rho,), solution)
    row = (schedule, params.alpha, params.rho, stop_tol)
    (trace,) = engine.run([row], k_max, record_states=record_states)
    return trace


def trace_to_csv(trace: RunTrace) -> str:
    """CSV rows k, rel_error, diverged.

    The diverged column is 1 only on the terminal row of a diverged run.
    """
    lines = ["k,rel_error,diverged"]
    for t in range(trace.rounds_executed):
        div = 1 if (trace.diverged and t == trace.rounds_executed - 1) else 0
        lines.append(f"{t},{float(trace.errors[t])!r},{div}")
    return "\n".join(lines) + "\n"
