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
a sweep its whole grid. How a batch runs within one byte budget, as
blocks of rows, row sets and blocks of rounds, is stated in
`_StackedEngine.run`. Every run starts from all-zero x and z, is scored on
every round against the centralized optimum, and loses packets on exactly
the graph's directed edges. Every run of a batch is bitwise equal to the
same run alone.
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
from .problem import PartitionProblem, Solution, definite_with_margin, solve_centralized

DIVERGENCE_NORM = 1e8
_Z_CHECK_EVERY = 64
# Rounds are scored and stop-tested a block at a time, at most this many
# rounds a block; it divides _Z_CHECK_EVERY.
_SCORE_EVERY = 16
# The engine's working set: the state buffers of one block of rows with the
# x iterates of one block of rounds stay within these many bytes, and the
# block's mask draw is sized by those x iterates (see `_StackedEngine.run`).
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


def _error_sum(x: np.ndarray, ref: np.ndarray, starts: np.ndarray, norms: np.ndarray,
               order: np.ndarray | None = None):
    """Sum over node blocks of ||x block - ref block|| / ||ref block||.

    x and ref are flat in the `reference` x layout and block i starts at
    starts[i]; x may also stack such flat iterates on leading axes (rounds,
    rows), which gives one sum per iterate. x is overwritten: each caller
    scores an array it owns. The blocks may also lie in another order, with
    block order[i] node i's: the terms are summed in node order. Both
    `relative_error` and the stacked engine compute the error here, so the
    two agree bitwise on equal iterates.
    """
    d = np.subtract(x, ref, out=x)
    d *= d
    terms = np.sqrt(np.add.reduceat(d, starts, axis=-1)) / norms
    return (terms if order is None else terms.take(order, axis=-1)).sum(axis=-1)


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
    stacked `definite_with_margin` check and inv for all rhos. The x-update
    writes x in class-major order, where each node's slots are contiguous
    in their `reference` order: messages read it there through one composed
    table, and the error reference is held in that order too.

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
        norms = _block_norms(ref, starts)
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
        class_slots, class_nodes, bases = [], [], []
        at = 0
        while groups:
            members, hess, _, base = groups.pop()
            k, d = len(members), deg[members[0]]
            m = n * (d + 1)
            scale = np.ones(m)
            scale[:n] = d
            # (rhos, k, m, m): the class's systems at every rho
            systems = hess + np.multiply.outer(self.rhos, np.diag(scale))[:, None]
            if not definite_with_margin(systems):
                raise SingularLocalSystemError(
                    "local subproblem is singular (isolated node with rank-deficient cost?)"
                )
            self.classes.append((list(np.linalg.inv(systems)), slice(at, at + k * m), (k, m, 1)))
            bases.append(base)
            class_nodes.append(members)
            class_slots.append((self_slot[members][:, None] + np.arange(d + 1)).ravel())
            at += k * m
            del hess, systems
        self.base = np.concatenate(bases, axis=None)
        class_slots = np.concatenate(class_slots)
        self.linear = (slot_linear[class_slots, None] + col).ravel()
        from_slot = np.empty_like(class_slots)
        from_slot[class_slots] = np.arange(len(class_slots))
        self.from_class = (n * from_slot[:, None] + col).ravel()
        # The error reference in class-major order, in which the matmuls
        # write x: a node's slots are contiguous there too, in the same
        # order, so the error sum reads x as written and takes the nodes'
        # terms in node order (argsort inverts the class-major node order).
        class_nodes = np.concatenate(class_nodes)
        ref_class = np.empty_like(ref)
        ref_class[self.from_class] = ref
        self.reference = (ref_class, n * from_slot[self_slot[class_nodes]], norms[class_nodes],
                          np.argsort(class_nodes))
        # message on e = (j, i): [2 rho x_self - z_in_self[i],
        # 2 rho x_neigh[i] - z_in_neigh[i]] of node j, whose z row is edge (i, j);
        # its x entries are read in class-major order, through from_class
        message_x = n * np.stack([self_slot[sender], slots.edge_slot], axis=1)[..., None] + col
        self.message_class = self.from_class[message_x]
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
        ends on that round; errors are taken against `self.solution`.
        With record_states, each trace also holds its own copies of its x
        after every round and of its last z.

        Rows advance a block of rounds at a time (up to _SCORE_EVERY, ending
        on every _Z_CHECK_EVERY-th round and on k_max), which draws the masks
        of its lossy rows at its start. Within a block a round only updates
        the rows' state and keeps its x; at the block's end its rounds are
        scored and stop-tested at once, and each row's first round to end on
        is found. A row that ends mid-block runs on to the block's end, and
        those rounds are discarded, so its trace is the one a round-by-round
        test gives. The per-row loops run at block ends only. A row set (the
        rows live between two blocks on which runs end) builds its views
        once, and one statement then cuts all its per-row arrays, which share
        one row index.

        The working set is bounded whatever the batch size: rows run as
        consecutive blocks of rows whose buffers, with one round of what a
        block keeps per row (x, and with record_states z), fit _BLOCK_BYTES;
        and a block of rounds is as long as keeps them within it (at least
        one round). Its mask draw is no larger: per row and round, E uint64
        hashes and 2nE bool flags, against the x_size = n(E + N) >= E floats
        it keeps. Runs are independent and masks a pure function of (seed,
        round, edge), so no budget or tiling changes a bit of any trace.
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
        # whose buffers and one round of what a block of rounds keeps per row
        # (x, and with record_states z) fit _BLOCK_BYTES
        ids = sorted(set(source), key=lambda r: (settings[r][2], r))
        kept = self.x_size + (self.pad_at if record_states else 0)
        size = max(1, _BLOCK_BYTES // (8 * (self.row_size + kept)))
        ends = {}
        for at in range(0, len(ids), size):
            block = np.array(ids[at : at + size])
            ends.update(self._run_block(block, settings, k_max, record_states, kept))
        traces = []
        for at, r in enumerate(source):
            errors, diverged, xs, z = ends[r]
            if xs is not None and r in source[:at]:  # a shared row's copies
                xs, z = xs.copy(), z.copy()
            traces.append(RunTrace(errors=np.concatenate(errors), diverged=diverged, xs=xs, z=z))
        return traces

    def _run_block(self, ids, settings, k_max, record_states, kept) -> dict:
        """Run the runs ids, in (rho, run) order and with the settings `run`
        checked, from zero until each ends, a row set at a time; a block of
        rounds keeps `kept` floats per row and round. Returns, per run, its
        error pieces, diverged flag, and with record_states its x after every
        round (copied once, into one array per run that grows in place by
        rounds within _BLOCK_BYTES) and its own copy of its last z (else None
        and None)."""
        errors: dict = {r: [] for r in ids}  # pieces per run
        xs = {r: np.empty((0, self.x_size)) for r in ids} if record_states else {}
        grow = max(1, _BLOCK_BYTES // (8 * self.x_size * len(ids)))
        ends: dict = {}
        # The rows' arrays, all indexed by row and cut together where runs
        # end: the state buffers, the run ids, each row's alpha, rho index and
        # stop tolerance, and its hash bases and loss thresholds (zero for a
        # loss-free row), from which each block of rounds draws its masks.
        schedules, alphas, rhos, tols = zip(*(settings[r] for r in ids))
        row_set = (np.zeros((len(ids), self.row_size)), ids, np.array(alphas), np.array(rhos),
                   np.array(tols), *stack_schedules(schedules))
        k = 0
        # A row that ends mid-block runs on to the block's end (those rounds
        # are discarded), and a runaway one may overflow there.
        with np.errstate(over="ignore", invalid="ignore"):
            while len(row_set[1]):
                # A row set: the rows live until some run ends. Its views are
                # built once. A single row gets 1-D views, on which numpy
                # calls cost least; the axis -1 and -3 arguments below address
                # the same axes with or without the row axis.
                buf, ids, alphas, rhos, tols, bases, thresholds = row_set
                count = len(ids)
                lead = (count,) if count > 1 else ()
                state = buf if count > 1 else buf[0]
                z = state[..., : self.pad_at].reshape(lead + self.z_shape)
                heads = state[..., self.head_at :].reshape(lead + self.head_terms.shape[1:])
                v = np.empty(lead + (self.x_size,))
                # (rho index, its rows) per rho present; the rows are in
                # (rho, run) order, and one rho takes the class views whole
                present, starts = np.unique(rhos, return_index=True)
                bounds = [*starts.tolist(), count]
                spans = list(zip(present.tolist(), map(slice, bounds, bounds[1:])))
                spans = spans if len(spans) > 1 else [(spans[0][0], ...)]
                # A block of rounds: as many as keep the rows' state and what
                # the block keeps of each round within _BLOCK_BYTES, 1 to
                # _SCORE_EVERY. Round t's x is written, class by class, into
                # its slot xb[t] of the block, in class-major order, and its
                # messages are gathered from there.
                size = (_BLOCK_BYTES // (8 * count) - self.row_size) // kept
                size = min(_SCORE_EVERY, max(1, size))
                xb = np.empty((size, count, self.x_size))
                zb = np.empty((size, count, self.pad_at)) if record_states else None
                x_all = xb if count > 1 else xb[:, 0]
                # per class and rho: its inverses, its rows of v and of every
                # round's x
                solves = []
                for invs, at, shape in self.classes:
                    v_c = v[..., at].reshape(lead + shape)
                    x_c = x_all[..., at].reshape((size,) + lead + shape)
                    solves += [(invs[i], v_c[rs], x_c, rs) for i, rs in spans]
                # per round of a block: its x, its solves and its z
                slots = [(x_all[t], [(inv, v_c, x_c[t, rs]) for inv, v_c, x_c, rs in solves],
                          zb[t] if record_states else None) for t in range(size)]
                relaxed = np.empty_like(z)
                # each row's alpha and rho scale its own q and z (shared ones
                # stay scalars, on which numpy calls cost least); np.unique of
                # floats would import numpy.ma, ~10 ms a command
                alpha = alphas.reshape(-1, 1, 1, 1)
                alpha = alpha if count > 1 and (alphas != alphas[0]).any() else alphas.item(0)
                keep = 1.0 - alpha
                two_rho = 2.0 * np.take(self.rhos, rhos).reshape(-1, 1, 1, 1)
                two_rho = two_rho if len(spans) > 1 else two_rho.item(0)
                # the lossy rows draw their masks; loss-free rows deliver all
                lossy = thresholds.any(axis=1)
                stacks = (bases[lossy], thresholds[lossy]) if lossy.any() else None
                log = []  # the rows' errors, one (rounds, rows) entry a block of rounds
                done = np.zeros(count, dtype=bool)
                while not done.any():
                    # the block ends on k_max and on every _Z_CHECK_EVERY-th round
                    length = min(size, k_max - k, _Z_CHECK_EVERY - k % _Z_CHECK_EVERY)
                    if stacks is not None:
                        # the block's masks, one flag per z entry: copyto
                        # broadcasting an (edges, 1, 1) mask is about twice as slow
                        gates = np.ones((count, length, self.pad_at), dtype=bool)
                        drawn = draw_block(*stacks, k, length)
                        gates[lossy] = np.repeat(drawn, 2 * self.n, axis=-1)
                    for t, (x_t, solves, z_t) in enumerate(slots[:length]):
                        np.add.reduce(state.take(self.head_terms, axis=-1), axis=-3, out=heads)
                        state.take(self.linear, axis=-1, out=v)
                        v += self.base
                        for inv, v_c, x_c in solves:
                            np.matmul(inv, v_c, out=x_c)
                        q = x_t.take(self.message_class, axis=-1)
                        q *= two_rho
                        q -= state.take(self.message_z, axis=-1)
                        q *= alpha
                        if stacks is not None:
                            np.multiply(z, keep, out=relaxed)
                            relaxed += q
                            np.copyto(z, relaxed, where=gates[:, t].reshape(z.shape))
                        else:
                            z *= keep
                            z += q
                        if record_states:
                            z_t[...] = state[..., : self.pad_at]
                        k += 1
                    # The block's scores and stop tests, on its x as written,
                    # (rounds, rows, x_size) in class-major order: one |x|
                    # test and one error sum, which overwrites xb (the next
                    # block writes it anew). NaN fails every comparison.
                    x = xb[:length]
                    if record_states:
                        x_ref = x.take(self.from_class, axis=-1)
                        for row, r in enumerate(ids):
                            if k > len(xs[r]):
                                xs[r].resize((min(k_max, max(k, len(xs[r]) + grow)), self.x_size),
                                             refcheck=False)
                            xs[r][k - length : k] = x_ref[:, row]
                    ok = x.max(axis=-1) < DIVERGENCE_NORM
                    ok &= x.min(axis=-1) > -DIVERGENCE_NORM
                    err = _error_sum(x, *self.reference)
                    log.append(err)
                    ok &= err < np.inf
                    if k % _Z_CHECK_EVERY == 0 and z.size:
                        ok[-1] &= np.abs(z).reshape(count, -1).max(axis=1) < DIVERGENCE_NORM
                    stop = ~ok | (err < tols)
                    if k == k_max:
                        stop[-1] = True
                    # each row's first round to end on, if any
                    first, done = stop.argmax(axis=0), stop.any(axis=0)
                block = np.concatenate(log)
                # a row's pieces run to its last round: the block's end, or
                # the round it ends on
                cut = len(block) - length + first + 1
                cut[~done] = len(block)
                for row, r in enumerate(ids):
                    errors[r].append(block[: cut[row], row])
                for row in np.flatnonzero(done):
                    r, at = ids[row], first[row]
                    x_all = xs.pop(r, None)
                    if x_all is not None:
                        x_all.resize((k - length + at + 1, self.x_size), refcheck=False)
                    ends[r] = (errors[r], not ok[at, row], x_all,
                               zb[at, row].copy() if record_states else None)
                # the one place rows are dropped, at a block's end
                row_set = tuple(a[~done] for a in row_set)
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
    equal to iterating `sync_round` from `initial_states`. The engine draws,
    scores and tests a block of up to _SCORE_EVERY rounds at once and
    discards the rounds of the block after the one the run ends on, so the
    trace ends where a round-by-round test ends it; a runaway run may
    overflow in those discarded rounds, which emits no warning.
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
