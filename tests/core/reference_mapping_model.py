"""Reference ``LinExpr`` builder of the dynamic-device mapping ILP.

The production :class:`repro.core.mapping_model.MappingModelBuilder`
writes the model's rows straight into array form.  This module keeps
the operator-overloaded transcription of eqs. (1)–(16) it replaced —
boundaries as :class:`~repro.ilp.LinExpr` sums, non-overlap through
:meth:`~repro.ilp.Model.add_big_m_disjunction` — so the differential
test can compare the two model by model, row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.architecture.device import Placement
from repro.core.mapping_model import MappingSpec, Pair
from repro.ilp import Constraint, LinExpr, Model, Var, quicksum


@dataclass
class _Disjunction:
    """One big-M non-overlap disjunction, kept for solution completion.

    ``terms`` are the original (un-relaxed) boundary comparisons — they
    are *not* model rows; :meth:`Model.add_big_m_disjunction` only adds
    their relaxed twins.  ``aux`` are the ``c1..c4`` binaries in term
    order, ``relax`` the optional ``c5`` overlap permission.
    """

    terms: List[Constraint]
    aux: List[Var]
    relax: Optional[Var]


@dataclass
class BuiltMapping:
    """The reference model and what :func:`complete_solution` reads."""

    model: Model
    spec: MappingSpec
    w: Var
    selections: Dict[str, List[Tuple[Placement, Var]]]
    c5_vars: Dict[Pair, Var]
    #: recorded big-M disjunctions, per-cell load expressions (selection
    #: terms plus the cell's base-load constant) and the committed-load
    #: residual: everything :func:`complete_solution` needs to lift a
    #: geometric placement assignment to a full variable-value vector.
    disjunctions: List[_Disjunction] = field(default_factory=list)
    load_exprs: List[LinExpr] = field(default_factory=list)
    load_residual: int = 0


class MappingModelBuilder:
    """Builds the ILP of Section 3.2 for a :class:`MappingSpec`, row by row."""

    def __init__(self, spec: MappingSpec) -> None:
        self.spec = spec
        self._cache: Dict[str, Tuple[LinExpr, LinExpr, LinExpr, LinExpr]] = {}

    # -- model construction ------------------------------------------------

    def build(self) -> BuiltMapping:
        spec = self.spec
        model = Model("dynamic-device-mapping")
        w = model.add_integer("w", lb=0)

        selections: Dict[str, List[Tuple[Placement, Var]]] = {}
        for task in spec.tasks:
            options: List[Tuple[Placement, Var]] = []
            for placement in spec.candidate_placements(task):
                var = model.add_binary(
                    f"s[{placement.corner.x},{placement.corner.y},"
                    f"{placement.device_type.index},{task.name}]"
                )
                options.append((placement, var))
            selections[task.name] = options
            # eq. (1): every operation mapped to exactly one device.
            model.add_constr(
                quicksum(var for _, var in options) == 1,
                name=f"one_device[{task.name}]",
            )

        load_exprs, load_residual = self._add_load_constraints(
            model, w, selections
        )
        c5_vars, disjunctions = self._add_non_overlap(model, selections)
        self._add_routing_convenient(model, selections)

        # Primary objective: the largest pump load (eq. 10).  When
        # refinement supplies discouraged cells, a tiny secondary term
        # steers ties away from re-loading them; the weight keeps the
        # total strictly below 1, so the integral primary objective is
        # never traded off.
        objective = w.to_expr()
        penalty_terms = []
        if spec.discouraged_cells:
            for options in selections.values():
                for placement, var in options:
                    covered = sum(
                        1
                        for cell in placement.pump_cells()
                        if cell in spec.discouraged_cells
                    )
                    if covered:
                        penalty_terms.append((covered, var))
        if penalty_terms:
            weight = 0.9 / sum(c for c, _ in penalty_terms)
            objective = objective + quicksum(
                weight * c * var for c, var in penalty_terms
            )
        model.minimize(objective)
        return BuiltMapping(
            model, spec, w, selections, c5_vars,
            disjunctions=disjunctions,
            load_exprs=load_exprs,
            load_residual=load_residual,
        )

    # -- eq. (2) + (9): pump loads ------------------------------------------

    def _add_load_constraints(
        self,
        model: Model,
        w: Var,
        selections: Dict[str, List[Tuple[Placement, Var]]],
    ) -> Tuple[List[LinExpr], int]:
        spec = self.spec
        rate = {task.name: task.pump_rate for task in spec.tasks}
        cell_terms: Dict[Point, List[Tuple[int, Var]]] = {}
        for name, options in selections.items():
            for placement, var in options:
                for cell in placement.pump_cells():
                    cell_terms.setdefault(cell, []).append((rate[name], var))
        load_exprs: List[LinExpr] = []
        for cell, terms in sorted(cell_terms.items()):
            load = quicksum(r * var for r, var in terms) + spec.base_load.get(
                cell, 0
            )
            load_exprs.append(load)
            model.add_constr(
                load <= w, name=f"load[{cell.x},{cell.y}]"
            )
        # Valves loaded only by committed devices still bound w.
        residual = max(
            (
                load
                for cell, load in spec.base_load.items()
                if cell not in cell_terms
            ),
            default=0,
        )
        if residual:
            model.add_constr(w >= residual, name="load[committed]")
        return load_exprs, residual

    # -- eqs. (3)-(8) + (12): non-overlap -------------------------------------

    def _boundaries(
        self,
        name: str,
        selections: Dict[str, List[Tuple[Placement, Var]]],
    ) -> Tuple[LinExpr, LinExpr, LinExpr, LinExpr]:
        """(b_le, b_ri, b_do, b_up) as linear expressions or constants.

        Memoized per task: the expressions are only ever read, so one
        set per task gives the same rows as a fresh set per pair.
        """
        if name in selections:
            cached = self._cache.get(name)
            if cached is None:
                options = selections[name]
                cached = self._cache[name] = (
                    quicksum(p.rect.left * v for p, v in options),
                    quicksum(p.rect.right * v for p, v in options),
                    quicksum(p.rect.bottom * v for p, v in options),
                    quicksum(p.rect.top * v for p, v in options),
                )
            return cached
        rect = self.spec.fixed[name].rect
        return (
            LinExpr({}, rect.left),
            LinExpr({}, rect.right),
            LinExpr({}, rect.bottom),
            LinExpr({}, rect.top),
        )

    def _interval(self, name: str) -> Tuple[int, int]:
        for task in self.spec.tasks:
            if task.name == name:
                return task.interval
        device = self.spec.fixed[name]
        return (device.start, device.end)

    def _add_non_overlap(
        self,
        model: Model,
        selections: Dict[str, List[Tuple[Placement, Var]]],
    ) -> Tuple[Dict[Pair, Var], List[_Disjunction]]:
        spec = self.spec
        big_m = spec.grid.width + spec.grid.height
        c5_vars: Dict[Pair, Var] = {}
        disjunctions: List[_Disjunction] = []

        names = [t.name for t in spec.tasks]
        fixed_names = sorted(spec.fixed)
        task_pairs = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
        mixed_pairs = [(f, t) for f in fixed_names for t in names]

        for a, b in task_pairs + mixed_pairs:
            sa, ea = self._interval(a)
            sb, eb = self._interval(b)
            if not (sa < eb and sb < ea):
                continue  # lifetimes disjoint: may share area freely
            relax: Optional[Var] = None
            pair = spec.storage_pair(a, b)
            if (
                pair is not None
                and spec.allow_storage_overlap
                and pair not in spec.forbidden_overlaps
            ):
                relax = model.add_binary(f"c5[{pair[0]},{pair[1]}]")
                c5_vars[pair] = relax
            a_le, a_ri, a_do, a_up = self._boundaries(a, selections)
            b_le, b_ri, b_do, b_up = self._boundaries(b, selections)
            terms = [
                a_ri <= b_le,  # a left of b
                b_ri <= a_le,  # b left of a
                a_up <= b_do,  # a below b
                b_up <= a_do,  # b below a
            ]
            aux = model.add_big_m_disjunction(
                terms,
                big_m=big_m,
                name=f"no_overlap[{a},{b}]",
                relax_var=relax,
            )
            disjunctions.append(_Disjunction(terms, aux, relax))
        return c5_vars, disjunctions

    # -- eqs. (13)-(16): routing-convenient mapping -----------------------------

    def _add_routing_convenient(
        self,
        model: Model,
        selections: Dict[str, List[Tuple[Placement, Var]]],
    ) -> None:
        spec = self.spec
        d = spec.resolved_distance_limit()
        if d is None:
            return
        known = set(selections) | set(spec.fixed)
        for parent, child in sorted(spec.parent_pairs):
            if parent not in known or child not in known:
                continue
            if parent not in selections and child not in selections:
                continue  # both committed: nothing left to constrain
            c_le, c_ri, c_do, c_up = self._boundaries(child, selections)
            p_le, p_ri, p_do, p_up = self._boundaries(parent, selections)
            # Strict inequalities over integers: "> x - d" == ">= x-d+1".
            name = f"near[{parent},{child}]"
            model.add_constr(c_ri - p_le >= 1 - d, f"{name}.ri")
            model.add_constr(c_le - p_ri <= d - 1, f"{name}.le")
            model.add_constr(c_up - p_do >= 1 - d, f"{name}.up")
            model.add_constr(c_do - p_up <= d - 1, f"{name}.do")


def complete_solution(
    built: BuiltMapping, placements: Dict[str, Placement]
) -> Optional[Dict[Var, float]]:
    """Lift a geometric placement assignment to full model values.

    The heuristic lanes of the anytime mapper (DESIGN.md §13) produce
    placements, not variable vectors; the B&B incumbent injection and
    the MILP replay certificate both need every model variable valued.
    This derives them mechanically: selections become the one-hot
    indicators, each non-overlap disjunction activates its first
    geometrically satisfied term (falling back to the ``c5`` overlap
    permission when no side separates the pair), and ``w`` is the
    maximum pump load the placements actually induce.

    Returns None when the placements cannot satisfy the model — a task
    placed outside its candidate set (e.g. the greedy fallback tier
    dropped the anchor stride or the distance limit) or an overlap with
    no ``c5`` permission.  A non-None result is *mechanically* complete
    but deliberately not trusted: callers re-validate with
    :meth:`Model.check_solution` (the near rows, for one, are not
    examined here) and certify by exact MILP replay before the vector
    reaches a solver.
    """
    values: Dict[Var, float] = {}
    for name, options in built.selections.items():
        chosen = placements.get(name)
        if chosen is None:
            return None
        hit = False
        for placement, var in options:
            selected = placement == chosen
            values[var] = 1.0 if selected else 0.0
            hit = hit or selected
        if not hit:
            return None
    for disjunction in built.disjunctions:
        satisfied = next(
            (
                k
                for k, term in enumerate(disjunction.terms)
                if term.satisfied_by(values)
            ),
            None,
        )
        if satisfied is None:
            if disjunction.relax is None:
                return None  # true overlap with no storage permission
            values[disjunction.relax] = 1.0
            for aux in disjunction.aux:
                values[aux] = 1.0  # eq. 8 with c5 = 1: all rows off
        else:
            if disjunction.relax is not None:
                values[disjunction.relax] = 0.0
            for k, aux in enumerate(disjunction.aux):
                values[aux] = 0.0 if k == satisfied else 1.0
    w_value = built.load_residual
    for expr in built.load_exprs:
        w_value = max(w_value, int(round(expr.evaluate(values))))
    values[built.w] = float(w_value)
    return values
