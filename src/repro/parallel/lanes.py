"""Lane grouping for heterogeneous cell lists (DESIGN.md §15).

A mixed machine×input cell list interleaves cells from several machine
configurations.  The scalar path walks them one at a time; the vector
backend wants the opposite shape — *lane arrays*: all cells sharing one
machine-coordinate signature batched into a single
:meth:`~repro.bet.SymbolicBET.rebind_batch` replay.  This module is the
planning layer between the two:

:func:`plan_lane_chunks`
    partitions an arbitrary cell list into chunks whose cells all share
    one machine signature and one key order, so every shipped chunk is a
    *lane-group slice* — the shard unit of the grouped dispatch path.
    Cells that cannot batch (no input axes, non-numeric values) land in
    scalar residue chunks instead of poisoning a group.

:class:`LanePack` / :func:`pack_group`
    the packed SoA transport for one lane-group slice: one machine
    signature plus columnar input arrays instead of N per-point dicts,
    so pool/multinode executors serialize each group once.  The pack
    reconstructs the original cell dicts bit-identically on the worker
    (:meth:`LanePack.cells`) for the lanes that fall back to the scalar
    path.  :func:`pack_cells` is the checking variant for a cell list
    not produced by the planner.

The planner never reorders cells *within* a group and never merges
groups, so results scatter back to the caller's original cell order
through the chunk's explicit index list (see ``_run_chunked`` in
:mod:`repro.parallel.engine`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: axis-name prefix marking an input (workload) parameter in a mixed grid
INPUT_PREFIX = "input:"


def split_overrides(
        overrides: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Partition one cell into (machine overrides, input bindings)."""
    machine_part = {name: value for name, value in overrides.items()
                    if not name.startswith(INPUT_PREFIX)}
    input_part = {name[len(INPUT_PREFIX):]: value
                  for name, value in overrides.items()
                  if name.startswith(INPUT_PREFIX)}
    return machine_part, input_part


def cell_signature(cell: Dict[str, float]) -> Optional[Tuple]:
    """The lane-group key of one cell, or ``None`` if it cannot batch.

    Two cells belong to the same lane group exactly when they share this
    signature: identical machine overrides (names *and* values — the
    group is evaluated against one timing model) and the same set of
    input-axis names (so the group transposes into rectangular columns).
    Cells with non-numeric values are unbatchable (``None``) and take
    the scalar residue path.
    """
    machine_items: List[Tuple[str, Any]] = []
    input_names: List[str] = []
    for name, value in cell.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        if name.startswith(INPUT_PREFIX):
            input_names.append(name)
        else:
            machine_items.append((name, value))
    if not input_names:
        return None        # nothing to build lanes over
    machine_items.sort()
    input_names.sort()
    return (tuple(machine_items), tuple(input_names))


class LanePack:
    """One lane-group slice as a packed SoA payload.

    ``signature`` is the group's shared machine overrides (sorted
    ``(name, value)`` tuple); ``columns`` maps each ``input:``-prefixed
    axis name to its per-lane value list; ``order`` is the full key
    order of the original cell dicts (shared by every cell in the pack:
    :func:`plan_lane_chunks` groups by it and :func:`pack_cells` checks
    it).  Values keep their original Python types (``int`` stays
    ``int``) so :meth:`cells` reconstructs dicts that compare — and
    checkpoint-key, and machine-name-tag — identically to the
    originals.
    """

    __slots__ = ("signature", "columns", "order", "count")

    def __init__(self, signature: Tuple[Tuple[str, Any], ...],
                 columns: Dict[str, List[Any]],
                 order: Tuple[str, ...], count: int):
        self.signature = signature
        self.columns = columns
        self.order = order
        self.count = count

    def __len__(self) -> int:
        return self.count

    def machine_part(self) -> Dict[str, Any]:
        return dict(self.signature)

    def cells(self) -> List[Dict[str, Any]]:
        """Reconstruct the original per-lane cell dicts, key order and
        all (the machine name tag iterates dict order, so order is part
        of bit-identity)."""
        machine = dict(self.signature)
        return [{name: (self.columns[name][lane]
                        if name in self.columns else machine[name])
                 for name in self.order}
                for lane in range(self.count)]

    def input_columns(self, base_inputs: Dict[str, float]
                      ) -> Dict[str, List[Any]]:
        """Merged input columns for :meth:`rebind_batch`.

        Base bindings become constant columns; per-lane overrides win,
        mirroring the scalar path's ``{**base_inputs, **input_part}``.
        """
        cols: Dict[str, List[Any]] = {}
        for name, value in base_inputs.items():
            cols[name] = [value] * self.count
        for name, values in self.columns.items():
            cols[name[len(INPUT_PREFIX):]] = list(values)
        return cols


def pack_cells(cells: Sequence[Dict[str, Any]]) -> Optional[LanePack]:
    """Pack a uniform cell list into one :class:`LanePack`.

    Returns ``None`` when the cells do not form a single lane group —
    differing machine signatures, ragged input keys or key *order*
    (dict order feeds the machine name tag), or non-numeric values.
    """
    if not cells:
        return None
    first = cell_signature(cells[0])
    if first is None:
        return None
    order = tuple(cells[0])
    for cell in cells:
        if tuple(cell) != order or cell_signature(cell) != first:
            return None
    return pack_group(cells, first)


def pack_group(cells: Sequence[Dict[str, Any]],
               signature: Tuple) -> LanePack:
    """Pack one chunk of :func:`plan_lane_chunks` output whose shared
    :func:`cell_signature` is already known (no per-cell re-check)."""
    order = tuple(cells[0])
    columns = {name: [cell[name] for cell in cells] for name in order
               if name.startswith(INPUT_PREFIX)}
    return LanePack(signature=signature[0], columns=columns, order=order,
                    count=len(cells))


def plan_lane_chunks(cells: Sequence[Dict[str, Any]],
                     chunk_size: int) -> List[List[int]]:
    """Partition ``cells`` into lane-group-aligned chunks.

    Returns position lists into ``cells``: every chunk is either a slice
    of one lane group (same machine signature, same key order, original
    relative order — packable by :func:`pack_group`) or a slice of the
    unbatchable residue (evaluated scalar).  Groups appear in
    first-encounter order, each split at ``chunk_size``; the residue
    keeps its own original order.  The lists form an exact partition of
    ``range(len(cells))``.
    """
    chunk_size = max(1, int(chunk_size))
    groups: Dict[Tuple, List[int]] = {}
    residue: List[int] = []
    for position, cell in enumerate(cells):
        signature = cell_signature(cell)
        if signature is None:
            residue.append(position)
        else:
            groups.setdefault((signature, tuple(cell)), []).append(position)
    chunks: List[List[int]] = []
    for positions in list(groups.values()) + [residue]:
        for start in range(0, len(positions), chunk_size):
            chunks.append(positions[start:start + chunk_size])
    return chunks
