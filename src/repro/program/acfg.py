"""Abstract control-flow graph (Definitions 6 and 7 of the paper).

The ACFG is the per-reference, context-expanded, acyclic program
representation that both the classical cache analysis and the paper's
reverse-order optimizer operate on:

* one ``REF`` vertex per (instruction, VIVU context) pair — a *reference
  to a memory item*,
* explicit ``JOIN`` vertices wherever convergent execution paths meet
  (after conditionals/switches, at loop ``REST`` entries and loop exits),
  hosting the join functions of Section 4,
* polar ``SOURCE`` (●) and ``SINK`` (○) vertices.

Loops are unrolled once per the VIVU transformation: the body appears in
a ``FIRST`` and a ``REST`` instance; the ``REST`` back edge is *broken*
in the exported DAG but remembered in :attr:`ACFG.back_edges` so the
fixpoint cache analysis can close the loop (a ``REST`` instance stands
for every iteration after the first).

Vertices are created in topological order, so the vertex id (``rid``)
doubles as a topological index; the reverse walk of Algorithm 3 is simply
descending-rid iteration.

The graph is stored as numpy columns (:class:`ACFGColumns`: kind and
prefetch masks, instruction uids, memory blocks, multipliers, CSR
adjacency and back edges).  :class:`RefVertex` objects and the per-rid
adjacency tuples are views materialized on first access, so analyses that
read the columns never pay for them.  :func:`splice_prefetch` derives the
ACFG of a program with one more prefetch from the ACFG of the program
without it, by inserting one vertex per VIVU copy of the receiving block
at the slot a fresh :func:`build_acfg` would give it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LayoutError, ProgramModelError
from repro.program.cfg import ControlFlowGraph
from repro.program.instructions import Instruction
from repro.program.layout import AddressLayout, MemoryMap
from repro.program.structure import (
    BlockNode,
    CallNode,
    IfElseNode,
    LoopNode,
    SeqNode,
    StructureNode,
    SwitchNode,
)
from repro.program.vivu import (
    Context,
    TOP,
    context_label,
    enter_call,
    enter_loop_first,
    enter_loop_rest,
    execution_multiplier,
)


class VertexKind(enum.Enum):
    """Role of an ACFG vertex."""

    SOURCE = "source"
    SINK = "sink"
    REF = "ref"
    JOIN = "join"


#: Vertex kinds by their code in :attr:`ACFGColumns.kind`.
KIND_CODES: Tuple[VertexKind, ...] = (
    VertexKind.SOURCE,
    VertexKind.SINK,
    VertexKind.REF,
    VertexKind.JOIN,
)
SOURCE_CODE, SINK_CODE, REF_CODE, JOIN_CODE = range(4)


@dataclass(slots=True)
class RefVertex:
    """One ACFG vertex.

    Attributes:
        rid: Vertex id == topological index.
        kind: Vertex role.
        instr: The referenced instruction (``None`` for non-REF vertices).
        context: VIVU context of the reference.
        block_name: Basic block holding ``instr`` (``None`` for non-REF).
        index_in_block: Position of ``instr`` within its block.
    """

    rid: int
    kind: VertexKind
    instr: Optional[Instruction] = None
    context: Context = TOP
    block_name: Optional[str] = None
    index_in_block: int = -1

    @property
    def is_ref(self) -> bool:
        """True for reference vertices (the only ones that touch memory)."""
        return self.kind is VertexKind.REF

    @property
    def is_prefetch(self) -> bool:
        """True when this vertex references a software prefetch."""
        return self.instr is not None and self.instr.is_prefetch

    def key(self) -> Tuple[int, Context]:
        """Rebuild-stable identity: (instruction uid, context)."""
        if self.instr is None:
            raise ProgramModelError(f"vertex {self.rid} has no instruction key")
        return (self.instr.uid, self.context)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is VertexKind.REF:
            return (
                f"<r{self.rid} {self.block_name}[{self.index_in_block}] "
                f"{context_label(self.context)}>"
            )
        return f"<{self.kind.value}{self.rid}>"


@dataclass(slots=True)
class ACFGColumns:
    """Per-vertex and per-edge arrays of one ACFG (do not mutate).

    Row ``rid`` describes vertex ``rid``; ``-1`` marks "none".  The CSR
    pair ``pred_ptr``/``pred_idx`` lists each vertex's forward
    predecessors in construction order, ``succ_ptr``/``succ_idx`` its
    successors in ascending rid order.
    """

    kind: np.ndarray  #: int8 code into :data:`KIND_CODES`
    is_ref: np.ndarray  #: bool
    is_prefetch: np.ndarray  #: bool, REF vertices of prefetch instructions
    instr_uid: np.ndarray  #: int64 instruction uid
    target_uid: np.ndarray  #: int64 prefetch target uid (code prefetches)
    context_id: np.ndarray  #: int64 index into :attr:`ACFG.contexts`
    block_id: np.ndarray  #: int64 index into :attr:`ACFG.block_names`
    index_in_block: np.ndarray  #: int64
    ref_block: np.ndarray  #: int64 memory block ``S(r)`` of the instruction
    target_block: np.ndarray  #: int64 memory block a code prefetch loads
    multiplier: np.ndarray  #: int64 worst-case execution multiplier
    pred_ptr: np.ndarray
    pred_idx: np.ndarray
    succ_ptr: np.ndarray
    succ_idx: np.ndarray
    back_src: np.ndarray  #: analysis-only back edges, source side
    back_dst: np.ndarray  #: analysis-only back edges, target side


def _csr(src: np.ndarray, dst: np.ndarray, n: int):
    """Pred and succ CSR arrays of an edge list given in pred order.

    Edges must be listed grouped by ascending ``dst`` (each group in the
    predecessor order to keep); a stable sort by ``src`` then yields the
    ascending successor lists a fresh build produces.
    """
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=pred_ptr[1:])
    succ_order = np.argsort(src, kind="stable")
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=succ_ptr[1:])
    return pred_ptr, src, succ_ptr, dst[succ_order]


class ACFG:
    """The acyclic abstract control-flow graph of one program.

    Build with :func:`build_acfg` (or derive a one-prefetch-larger graph
    with :func:`splice_prefetch`).  The graph is immutable once built.
    It keeps a snapshot of the program's address layout, so its
    :attr:`layout` and :attr:`memory_map` stay those of the analysed
    program even after the optimizer mutates the CFG further.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        columns: ACFGColumns,
        contexts: List[Context],
        block_names: Tuple[str, ...],
        instr_by_uid: Dict[int, Instruction],
        uid_address: np.ndarray,
        block_start: np.ndarray,
        end_address: int,
        block_size: int,
        base_address: int,
        version: int,
        layout: Optional[AddressLayout] = None,
        memory_map: Optional[MemoryMap] = None,
    ):
        self.cfg = cfg
        self.columns = columns
        #: VIVU context table indexed by :attr:`ACFGColumns.context_id`.
        self.contexts = contexts
        #: CFG block names in layout order, indexed by ``block_id``.
        self.block_names = block_names
        self.block_size = block_size
        self.base_address = base_address
        self.source = 0
        self.sink = len(columns.kind) - 1
        #: Analysis-only loop-closing edges (REST exit -> REST-entry join).
        self.back_edges: List[Tuple[int, int]] = list(
            zip(columns.back_src.tolist(), columns.back_dst.tolist())
        )
        # Address snapshot: uid -> byte address (-1 = absent), block
        # start addresses in layout order, and the uid -> instruction map.
        self._instr_by_uid = instr_by_uid
        self._uid_address = uid_address
        self._block_start = block_start
        self._end_address = end_address
        self._version = version
        self._layout = layout
        self._memory_map = memory_map
        # Lazily materialized Python views.
        self._vertices: Optional[List[RefVertex]] = None
        self._ref_list: Optional[List[RefVertex]] = None
        self._by_key: Optional[Dict[Tuple[int, Context], int]] = None
        self._pred: Optional[List[Tuple[int, ...]]] = None
        self._succ: Optional[List[Tuple[int, ...]]] = None
        self._multiplier: Optional[List[int]] = None
        self._ref_block: Optional[List[int]] = None
        self._target_block: Optional[List[int]] = None
        self._edge_heads: Optional[np.ndarray] = None
        self._block_rows: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # address snapshot
    # ------------------------------------------------------------------
    @property
    def layout(self) -> AddressLayout:
        """Address layout of the analysed program."""
        if self._layout is None:
            addr = self._uid_address
            uids = np.flatnonzero(addr >= 0)
            uids = uids[np.argsort(addr[uids], kind="stable")]
            uid_list = uids.tolist()
            by_uid = self._instr_by_uid
            self._layout = AddressLayout.from_snapshot(
                self.cfg,
                self.base_address,
                self._version,
                order=[by_uid[uid] for uid in uid_list],
                address_of=dict(zip(uid_list, addr[uids].tolist())),
                block_start=dict(
                    zip(self.block_names, self._block_start.tolist())
                ),
                end_address=self._end_address,
            )
        return self._layout

    @property
    def memory_map(self) -> MemoryMap:
        """Block-granular view of :attr:`layout`."""
        if self._memory_map is None:
            self._memory_map = MemoryMap(self.layout, self.block_size)
        return self._memory_map

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> List[RefVertex]:
        """All vertices, topological order (materialized on first use)."""
        if self._vertices is None:
            cols = self.columns
            by_uid = self._instr_by_uid
            contexts = self.contexts
            names = self.block_names
            vertices = []
            for rid, (code, uid, cid, bid, idx) in enumerate(
                zip(
                    cols.kind.tolist(),
                    cols.instr_uid.tolist(),
                    cols.context_id.tolist(),
                    cols.block_id.tolist(),
                    cols.index_in_block.tolist(),
                )
            ):
                vertices.append(
                    RefVertex(
                        rid,
                        KIND_CODES[code],
                        by_uid[uid] if uid >= 0 else None,
                        contexts[cid],
                        names[bid] if bid >= 0 else None,
                        idx,
                    )
                )
            self._vertices = vertices
        return self._vertices

    @property
    def multiplier(self) -> List[int]:
        """Worst-case execution multiplier per vertex (context product)."""
        if self._multiplier is None:
            self._multiplier = self.columns.multiplier.tolist()
        return self._multiplier

    def _adjacency(self, ptr: np.ndarray, idx: np.ndarray):
        ptr_list = ptr.tolist()
        idx_list = idx.tolist()
        return [
            tuple(idx_list[ptr_list[rid]:ptr_list[rid + 1]])
            for rid in range(len(ptr_list) - 1)
        ]

    def edge_heads(self) -> np.ndarray:
        """Head rid of every edge in ``pred_idx`` order (cached)."""
        if self._edge_heads is None:
            self._edge_heads = np.repeat(
                np.arange(len(self)), np.diff(self.columns.pred_ptr)
            )
        return self._edge_heads

    def block_rows(self, block_id: int) -> np.ndarray:
        """Rids of every VIVU copy of one CFG block's vertices (cached)."""
        rows = self._block_rows.get(block_id)
        if rows is None:
            rows = np.flatnonzero(self.columns.block_id == block_id)
            self._block_rows[block_id] = rows
        return rows

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns.kind)

    def successors(self, rid: int) -> Sequence[int]:
        """Forward (DAG) successors of a vertex."""
        if self._succ is None:
            self._succ = self._adjacency(
                self.columns.succ_ptr, self.columns.succ_idx
            )
        return self._succ[rid]

    def predecessors(self, rid: int) -> Sequence[int]:
        """Forward (DAG) predecessors of a vertex."""
        if self._pred is None:
            self._pred = self._adjacency(
                self.columns.pred_ptr, self.columns.pred_idx
            )
        return self._pred[rid]

    def vertex(self, rid: int) -> RefVertex:
        """Vertex by id."""
        vertices = self._vertices
        if vertices is None:
            vertices = self.vertices
        return vertices[rid]

    def by_key(self, uid: int, context: Context) -> Optional[int]:
        """Vertex id for (instruction uid, context), or ``None``."""
        if self._by_key is None:
            cols = self.columns
            refs = np.flatnonzero(cols.is_ref)
            contexts = self.contexts
            self._by_key = {
                (uid_, contexts[cid]): rid
                for rid, uid_, cid in zip(
                    refs.tolist(),
                    cols.instr_uid[refs].tolist(),
                    cols.context_id[refs].tolist(),
                )
            }
        return self._by_key.get((uid, context))

    def iter_topological(self) -> Iterator[RefVertex]:
        """Vertices in topological (construction) order."""
        return iter(self.vertices)

    def iter_reverse(self) -> Iterator[RefVertex]:
        """Vertices from sink to source — the order of Algorithm 3."""
        return reversed(self.vertices)

    def ref_vertices(self) -> List[RefVertex]:
        """Only the REF vertices, topological order (cached list)."""
        if self._ref_list is None:
            self._ref_list = [v for v in self.vertices if v.is_ref]
        return self._ref_list

    def block_of(self, rid: int) -> int:
        """``S(r)``: memory block id of a REF vertex's instruction."""
        if self._ref_block is None:
            self._ref_block = self.columns.ref_block.tolist()
        block = self._ref_block[rid]
        if block < 0:
            raise ProgramModelError(f"vertex {rid} references no memory item")
        return block

    def target_block_or_none(self, rid: int) -> Optional[int]:
        """Memory block an instruction-cache prefetch vertex loads;
        ``None`` for non-prefetches and for *data* prefetches (which
        carry a data-access target instead of a code target)."""
        if self._target_block is None:
            self._target_block = self.columns.target_block.tolist()
        target = self._target_block[rid]
        return None if target < 0 else target

    def prefetch_target_block(self, rid: int) -> int:
        """Memory block an instruction-cache prefetch vertex loads."""
        target = self.target_block_or_none(rid)
        if target is None:
            raise ProgramModelError(f"vertex {rid} is not a prefetch")
        return target

    @property
    def ref_count(self) -> int:
        """Number of REF vertices (|R| in the paper's complexity terms)."""
        return int(np.count_nonzero(self.columns.is_ref))

    def validate(self) -> None:
        """Check DAG invariants: edges ascend rid, poles are correct."""
        cols = self.columns
        n = len(cols.kind)
        if n == 0 or cols.kind[0] != SOURCE_CODE:
            raise ProgramModelError("ACFG source must be vertex 0")
        if cols.kind[n - 1] != SINK_CODE:
            raise ProgramModelError("ACFG sink must be the last vertex")
        src = np.repeat(np.arange(n), np.diff(cols.succ_ptr))
        bad = np.flatnonzero(cols.succ_idx <= src)
        if len(bad):
            raise ProgramModelError(
                f"edge ({int(src[bad[0]])}, {int(cols.succ_idx[bad[0]])}) "
                "violates topological order"
            )
        orphans = np.flatnonzero(np.diff(cols.pred_ptr)[1:] == 0)
        if len(orphans):
            raise ProgramModelError(
                f"vertex {int(orphans[0]) + 1} unreachable (no preds)"
            )
        bad = np.flatnonzero(cols.kind[cols.back_dst] != JOIN_CODE)
        if len(bad):
            raise ProgramModelError(
                f"back edge ({int(cols.back_src[bad[0]])}, "
                f"{int(cols.back_dst[bad[0]])}) must target a JOIN vertex"
            )


class _Builder:
    """Accumulates the columns of one :func:`build_acfg` expansion.

    Edges are recorded in creation order, which is already the pred-CSR
    order (grouped by ascending head, each group in predecessor order).
    """

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self.kind: List[int] = []
        self.uid: List[int] = []
        self.target: List[int] = []
        self.prefetch: List[bool] = []
        self.context: List[int] = []
        self.block: List[int] = []
        self.index: List[int] = []
        self.edge_src: List[int] = []
        self.edge_dst: List[int] = []
        self.back_edges: List[Tuple[int, int]] = []
        self.contexts: List[Context] = []
        self.context_mult: List[int] = []
        self._context_ids: Dict[Context, int] = {}
        self.block_names = tuple(block.name for block in cfg.blocks)
        self._block_ids = {name: i for i, name in enumerate(self.block_names)}
        self._block_rows: Dict[str, tuple] = {}

    def _context_id(self, ctx: Context) -> int:
        cid = self._context_ids.get(ctx)
        if cid is None:
            cid = len(self.contexts)
            self._context_ids[ctx] = cid
            self.contexts.append(ctx)
            self.context_mult.append(execution_multiplier(self.cfg, ctx))
        return cid

    def vertex(self, kind: int, ctx: Context, preds: Sequence[int]) -> int:
        """Append one non-REF vertex; returns its rid."""
        rid = len(self.kind)
        self.kind.append(kind)
        self.uid.append(-1)
        self.target.append(-1)
        self.prefetch.append(False)
        self.context.append(self._context_id(ctx))
        self.block.append(-1)
        self.index.append(-1)
        self.edge_src.extend(preds)
        self.edge_dst.extend([rid] * len(preds))
        return rid

    def block_chain(self, block_name: str, ctx: Context,
                    preds: Sequence[int]) -> List[int]:
        """Append the REF chain of one block instance; returns its exit."""
        rows = self._block_rows.get(block_name)
        if rows is None:
            instrs = self.cfg.block(block_name).instructions
            if not instrs:
                raise ProgramModelError(f"block {block_name!r} is empty")
            rows = (
                [instr.uid for instr in instrs],
                [
                    instr.prefetch_target
                    if instr.is_prefetch and instr.prefetch_target is not None
                    else -1
                    for instr in instrs
                ],
                [instr.is_prefetch for instr in instrs],
            )
            self._block_rows[block_name] = rows
        uids, targets, prefetch = rows
        size = len(uids)
        first = len(self.kind)
        self.kind.extend([REF_CODE] * size)
        self.uid.extend(uids)
        self.target.extend(targets)
        self.prefetch.extend(prefetch)
        self.context.extend([self._context_id(ctx)] * size)
        self.block.extend([self._block_ids[block_name]] * size)
        self.index.extend(range(size))
        self.edge_src.extend(preds)
        self.edge_dst.extend([first] * len(preds))
        self.edge_src.extend(range(first, first + size - 1))
        self.edge_dst.extend(range(first + 1, first + size))
        return [first + size - 1]


def _address_snapshot(layout: AddressLayout):
    """``(instr_by_uid, uid_address, block_start)`` of a layout."""
    instr_by_uid = {
        instr.uid: instr for instr in layout.instructions_in_order()
    }
    addresses = layout.addresses()
    uids = np.fromiter(addresses, dtype=np.int64, count=len(addresses))
    uid_address = np.full(int(uids.max()) + 1 if len(uids) else 0, -1,
                          dtype=np.int64)
    uid_address[uids] = np.fromiter(
        addresses.values(), dtype=np.int64, count=len(addresses)
    )
    block_start = np.asarray(
        [layout.block_start(block.name) for block in layout.cfg.blocks],
        dtype=np.int64,
    )
    return instr_by_uid, uid_address, block_start


def _memory_blocks(uids: np.ndarray, uid_address: np.ndarray,
                   block_size: int) -> np.ndarray:
    """Memory block per uid (``-1`` where the uid is ``-1``)."""
    return np.where(uids >= 0, uid_address[uids] // block_size, -1)


def _check_laid_out(uids: np.ndarray, uid_address: np.ndarray) -> None:
    """Raise unless every uid other than ``-1`` has an address."""
    wanted = uids[uids >= 0]
    outside = wanted[wanted >= len(uid_address)]
    if not len(outside):
        outside = wanted[uid_address[wanted] < 0]
    if len(outside):
        raise LayoutError(f"instruction uid {outside[0]} not in memory map")


def build_acfg(
    cfg: ControlFlowGraph,
    block_size: int,
    base_address: int = 0,
) -> ACFG:
    """Expand a structured CFG into its ACFG for a given memory block size.

    Performs the VIVU transformation: loops unrolled once (FIRST/REST
    instances, REST back edge recorded in :attr:`ACFG.back_edges`),
    function bodies inlined per call site.

    Args:
        cfg: The program (must carry its structure tree).
        block_size: Cache/memory block size in bytes (defines ``S(r)``).
        base_address: Base address for the layout.

    Returns:
        A validated :class:`ACFG`.
    """
    if cfg.structure is None:
        raise ProgramModelError("CFG has no structure tree; use ProgramBuilder")
    layout = AddressLayout(cfg, base_address)
    memory_map = MemoryMap(layout, block_size)
    builder = _Builder(cfg)
    source = builder.vertex(SOURCE_CODE, TOP, ())
    exits = _expand(builder, cfg.structure, TOP, [source])
    builder.vertex(SINK_CODE, TOP, exits)

    n = len(builder.kind)
    kind = np.asarray(builder.kind, dtype=np.int8)
    uid = np.asarray(builder.uid, dtype=np.int64)
    context_id = np.asarray(builder.context, dtype=np.int64)
    is_ref = kind == REF_CODE
    _check_unique_keys(uid, context_id, is_ref, builder.contexts)
    instr_by_uid, uid_address, block_start = _address_snapshot(layout)
    target = np.asarray(builder.target, dtype=np.int64)
    _check_laid_out(target, uid_address)
    pred_ptr, pred_idx, succ_ptr, succ_idx = _csr(
        np.asarray(builder.edge_src, dtype=np.int64),
        np.asarray(builder.edge_dst, dtype=np.int64),
        n,
    )
    back = np.asarray(builder.back_edges, dtype=np.int64).reshape(-1, 2)
    columns = ACFGColumns(
        kind=kind,
        is_ref=is_ref,
        is_prefetch=np.asarray(builder.prefetch, dtype=bool),
        instr_uid=uid,
        target_uid=target,
        context_id=context_id,
        block_id=np.asarray(builder.block, dtype=np.int64),
        index_in_block=np.asarray(builder.index, dtype=np.int64),
        ref_block=_memory_blocks(uid, uid_address, block_size),
        target_block=_memory_blocks(target, uid_address, block_size),
        multiplier=np.asarray(builder.context_mult, dtype=np.int64)[context_id],
        pred_ptr=pred_ptr,
        pred_idx=pred_idx,
        succ_ptr=succ_ptr,
        succ_idx=succ_idx,
        back_src=back[:, 0].copy(),
        back_dst=back[:, 1].copy(),
    )
    acfg = ACFG(
        cfg,
        columns,
        builder.contexts,
        builder.block_names,
        instr_by_uid,
        uid_address,
        block_start,
        layout.end_address,
        block_size,
        base_address,
        cfg.version,
        layout=layout,
        memory_map=memory_map,
    )
    acfg.validate()
    return acfg


def _check_unique_keys(uid: np.ndarray, context_id: np.ndarray,
                       is_ref: np.ndarray, contexts: List[Context]) -> None:
    """Reject two REF vertices with the same (instruction, context)."""
    refs = np.flatnonzero(is_ref)
    keys = uid[refs] * max(len(contexts), 1) + context_id[refs]
    _, first = np.unique(keys, return_index=True)
    if len(first) == len(refs):
        return
    seen = np.zeros(len(refs), dtype=bool)
    seen[first] = True
    dup = refs[np.flatnonzero(~seen)[0]]
    raise ProgramModelError(
        f"duplicate ACFG vertex for instruction {int(uid[dup])} in "
        f"context {context_label(contexts[int(context_id[dup])])}"
    )


def splice_prefetch(
    base: ACFG,
    cfg: ControlFlowGraph,
    block_name: str,
    index: int,
) -> ACFG:
    """The ACFG of ``cfg``, derived from ``base`` without re-expansion.

    ``cfg`` must be ``base``'s program with exactly one prefetch inserted
    at ``cfg.block(block_name).instructions[index]``.  One REF vertex is
    inserted per VIVU copy of the block, at the slot a fresh
    :func:`build_acfg` gives it: right after ``(instr[index-1], ctx)``,
    or right before ``(instr[0], ctx)`` when ``index == 0``.  The new
    vertex inherits that neighbour's out-edges (resp. in-edges, in the
    same order), back edges are moved along, rids shift, and memory
    blocks are recomputed from the shifted address layout.  The result
    equals ``build_acfg(cfg, ...)`` column for column.
    """
    block = cfg.block(block_name)
    instrs = block.instructions
    if not 0 <= index < len(instrs):
        raise ProgramModelError(
            f"splice index {index} out of range for block {block_name!r}"
        )
    prefetch = instrs[index]
    old_len = len(instrs) - 1
    if (
        not prefetch.is_prefetch
        or prefetch.uid in base._instr_by_uid
        or old_len < 1
    ):
        raise ProgramModelError(
            f"block {block_name!r}[{index}] is not a prefetch inserted "
            "into the base program"
        )
    cols = base.columns
    n = len(cols.kind)
    bid = base.block_names.index(block_name)

    # One insertion per VIVU copy of the block, in ascending rid order.
    in_block = base.block_rows(bid)
    neighbours = in_block[
        cols.index_in_block[in_block] == (index - 1 if index else 0)
    ]
    neighbour_uid = instrs[index - 1].uid if index else instrs[1].uid
    if (cols.instr_uid[neighbours] != neighbour_uid).any():
        raise ProgramModelError(
            f"block {block_name!r} of the base program does not match"
        )
    gaps = neighbours + 1 if index else neighbours
    copies = len(gaps)
    new_rids = gaps + np.arange(copies)
    rids = np.arange(n)
    new_of_old = rids + np.searchsorted(gaps, rids, side="right")
    copy_of = np.full(n, -1, dtype=np.int64)
    copy_of[neighbours] = np.arange(copies)
    # Row sources: old rows move to their shifted rid, and each new row
    # starts as a copy of its neighbour — same kind, context, block and
    # multiplier — before taking the prefetch's own fields.
    take = np.empty(n + copies, dtype=np.int64)
    take[new_of_old] = rids
    take[new_rids] = neighbours

    def spliced(column: np.ndarray, value) -> np.ndarray:
        out = column[take]
        out[new_rids] = value
        return out

    index_in_block = spliced(cols.index_in_block, index)
    shifted = in_block[cols.index_in_block[in_block] >= index]
    index_in_block[new_of_old[shifted]] += 1
    target_uid = (
        prefetch.prefetch_target if prefetch.prefetch_target is not None else -1
    )

    # Edges: the new vertex takes over the neighbour's out-edges (or,
    # at index 0, its in-edges) in place, then links to the neighbour.
    src = cols.pred_idx
    dst = base.edge_heads()
    src_new = new_of_old[src]
    dst_new = new_of_old[dst]
    back_src = new_of_old[cols.back_src]
    if index:
        moved = copy_of[src] >= 0
        src_new[moved] = new_rids[copy_of[src[moved]]]
        moved = copy_of[cols.back_src] >= 0
        back_src[moved] = new_rids[copy_of[cols.back_src[moved]]]
        link_src, link_dst = new_of_old[neighbours], new_rids
    else:
        moved = copy_of[dst] >= 0
        dst_new[moved] = new_rids[copy_of[dst[moved]]]
        link_src, link_dst = new_rids, new_of_old[neighbours]
    all_src = np.concatenate((src_new, link_src))
    all_dst = np.concatenate((dst_new, link_dst))
    order = np.argsort(all_dst, kind="stable")
    pred_ptr, pred_idx, succ_ptr, succ_idx = _csr(
        all_src[order], all_dst[order], n + copies
    )

    # Addresses: everything laid out from the insertion point on moves
    # up by the prefetch's size.
    uid_address = base._uid_address
    if index < old_len:
        insert_at = int(uid_address[instrs[index + 1].uid])
    else:
        last = instrs[index - 1]
        insert_at = int(uid_address[last.uid]) + last.size
    size = prefetch.size
    uid_address = np.where(uid_address >= insert_at, uid_address + size,
                           uid_address)
    if prefetch.uid >= len(uid_address):
        uid_address = np.concatenate(
            (uid_address,
             np.full(prefetch.uid + 1 - len(uid_address), -1, np.int64))
        )
    uid_address[prefetch.uid] = insert_at
    block_start = base._block_start + size * (
        np.arange(len(base.block_names)) > bid
    )

    if target_uid >= 0 and (
        target_uid >= len(uid_address) or uid_address[target_uid] < 0
    ):
        raise LayoutError(f"instruction uid {target_uid} not in memory map")
    instr_uid = spliced(cols.instr_uid, prefetch.uid)
    targets = spliced(cols.target_uid, target_uid)
    block_size = base.block_size
    columns = ACFGColumns(
        kind=cols.kind[take],
        is_ref=cols.is_ref[take],
        is_prefetch=spliced(cols.is_prefetch, True),
        instr_uid=instr_uid,
        target_uid=targets,
        context_id=cols.context_id[take],
        block_id=cols.block_id[take],
        index_in_block=index_in_block,
        ref_block=_memory_blocks(instr_uid, uid_address, block_size),
        target_block=_memory_blocks(targets, uid_address, block_size),
        multiplier=cols.multiplier[take],
        pred_ptr=pred_ptr,
        pred_idx=pred_idx,
        succ_ptr=succ_ptr,
        succ_idx=succ_idx,
        back_src=back_src,
        back_dst=new_of_old[cols.back_dst],
    )
    instr_by_uid = dict(base._instr_by_uid)
    instr_by_uid[prefetch.uid] = prefetch
    return ACFG(
        cfg,
        columns,
        base.contexts,
        base.block_names,
        instr_by_uid,
        uid_address,
        block_start,
        base._end_address + size,
        block_size,
        base.base_address,
        cfg.version,
    )


def _join(builder: _Builder, ctx: Context, preds: List[int]) -> List[int]:
    """Insert a JOIN vertex when paths converge (no-op for single pred)."""
    if len(preds) <= 1:
        return list(preds)
    return [builder.vertex(JOIN_CODE, ctx, preds)]


def _expand(
    builder: _Builder, node: StructureNode, ctx: Context, preds: List[int]
) -> List[int]:
    """Recursively expand ``node`` under context ``ctx``.

    ``preds`` are the vertex ids whose out-edges reach the node's first
    vertex; the return value is the list of exit vertex ids.
    """
    cfg = builder.cfg
    if isinstance(node, BlockNode):
        return builder.block_chain(node.block_name, ctx, preds)
    if isinstance(node, SeqNode):
        current = preds
        for item in node.items:
            current = _expand(builder, item, ctx, current)
        return current
    if isinstance(node, IfElseNode):
        cond_exits = builder.block_chain(node.cond_block, ctx, preds)
        then_exits = _expand(builder, node.then_node, ctx, list(cond_exits))
        if node.else_node is not None:
            else_exits = _expand(builder, node.else_node, ctx, list(cond_exits))
        else:
            else_exits = list(cond_exits)
        return _join(builder, ctx, then_exits + else_exits)
    if isinstance(node, SwitchNode):
        sel_exits = builder.block_chain(node.selector_block, ctx, preds)
        all_exits: List[int] = []
        for case in node.cases:
            all_exits.extend(_expand(builder, case, ctx, list(sel_exits)))
        return _join(builder, ctx, all_exits)
    if isinstance(node, LoopNode):
        info = cfg.loops[node.loop_name]
        first_ctx = enter_loop_first(ctx, node.loop_name)
        first_exits = _expand(builder, node.body, first_ctx, preds)
        if info.bound < 2:
            return first_exits
        rest_ctx = enter_loop_rest(ctx, node.loop_name)
        # REST entry join merges the first iteration's exit with the
        # (broken) back edge from the REST exit.
        entry_join = builder.vertex(JOIN_CODE, rest_ctx, first_exits)
        rest_exits = _expand(builder, node.body, rest_ctx, [entry_join])
        for rexit in rest_exits:
            builder.back_edges.append((rexit, entry_join))
        # After the loop, control may come from iteration 1 (if the
        # concrete trip count is 1) or from the REST instance.
        return _join(builder, ctx, first_exits + rest_exits)
    if isinstance(node, CallNode):
        call_exits = builder.block_chain(node.call_block, ctx, preds)
        info = cfg.functions[node.function_name]
        body_ctx = enter_call(ctx, node.site_id)
        return _expand(builder, info.structure, body_ctx, call_exits)
    raise ProgramModelError(f"unknown structure node {type(node).__name__}")
