"""Test oracles: instruments that check ``itolab`` from outside the package.

None of these is part of what ``itolab suite`` reports, so none lives in
``src/itolab``:

  * ``brute_force_sum_norm`` -- a grid oracle for the regime value, with its
    own direct norms, that the optimizer's sums must land on;
  * ``sequence_pairing`` and ``duality_gap`` -- a sequence paired with one
    of the dual regime, against the product of the two composite norms;
  * ``decoupling_difference_sequence`` -- the interleaved martingale
    differences of the decoupling argument, with their two identities;
  * ``uniform_space`` -- equal-weight measure spaces for test elements.
"""

from __future__ import annotations

import math

import numpy as np

from itolab.lq import FiniteMeasureSpace, InvalidInputError, batch_norm_q, conjugate_exponent
from itolab.seqnorms import LqSequence, NormExpr, RegimeSpec, composite_norm, regime_select


def uniform_space(n: int, total: float = 1.0) -> FiniteMeasureSpace:
    """n atoms of equal weight total/n."""
    return FiniteMeasureSpace(tuple(range(n)), np.full(n, total / n))


# -- decoupling construction ----------------------------------------------------


def decoupling_difference_sequence(G_list, M_list, Mc_list) -> dict:
    """Martingale differences interleaving a sequence with its independent copy.

    Given stagewise G_i (predictable factors), M_i, and the copies M_i^c,
    builds d_{2i-1} = G_i (M_i + M_i^c)/2 and d_{2i} = G_i (M_i - M_i^c)/2,
    and verifies per path that

        sum d_i = sum G_i M_i     and     sum (-1)^(i+1) d_i = sum G_i M_i^c.
    """
    n = len(G_list)
    if not (len(M_list) == len(Mc_list) == n):
        raise InvalidInputError("stage lists must have equal length")
    d = []
    total = None
    alt = None
    gm = None
    gmc = None
    for i in range(n):
        G = np.asarray(G_list[i], dtype=complex)
        M = np.asarray(M_list[i], dtype=complex)
        Mc = np.asarray(Mc_list[i], dtype=complex)
        odd = 0.5 * G * (M + Mc)
        even = 0.5 * G * (M - Mc)
        d.extend([odd, even])
        total = odd + even if total is None else total + odd + even
        alt = odd - even if alt is None else alt + odd - even
        gm = G * M if gm is None else gm + G * M
        gmc = G * Mc if gmc is None else gmc + G * Mc
    res_sum = float(np.abs(total - gm).max()) if n else 0.0
    res_alt = float(np.abs(alt - gmc).max()) if n else 0.0
    return {"d": d, "sum": total, "alternating": alt,
            "sum_residual": res_sum, "alternating_residual": res_alt}


# -- brute-force oracle --------------------------------------------------------
#
# Direct re-implementations of the norms (no shared gradient machinery), plus
# an exhaustive multilevel grid over decompositions.  The objective is convex,
# so zooming the grid around the incumbent (expanding when it sits on the box
# boundary) converges to the global infimum.


def _direct_atom(name: str, table: np.ndarray, seq: LqSequence, p: float, q: float) -> np.ndarray:
    """Norm of candidate tables, batched over a leading candidates axis.

    ``table`` has shape (B, items, atoms, *elem).
    """
    probs = seq.space.probs
    weights = seq.elem_space.weights if seq.elem_space is not None else None
    if name in ("S", "S_c", "S_r"):
        if weights is not None:
            m = np.einsum("a,biax->bx", probs, np.abs(table) ** 2)
            return (weights * m ** (q / 2.0)).sum(axis=-1) ** (1.0 / q)
        if name == "S_r":
            gram = table @ np.swapaxes(table, -1, -2).conj()
        else:
            gram = np.swapaxes(table, -1, -2).conj() @ table
        M = np.einsum("a,biaxy->bxy", probs, gram)
        eig = np.clip(np.linalg.eigvalsh(M), 0.0, None)
        return (eig ** (q / 2.0)).sum(axis=-1) ** (1.0 / q)
    pe = q if name == "D_qq" else p
    a = batch_norm_q(table, q, weights)
    return np.einsum("a,bia->b", probs, a ** pe) ** (1.0 / pe)


def _direct_node(node: NormExpr, table, seq, p, q) -> np.ndarray:
    if node.op == "atom":
        return _direct_atom(node.name, table, seq, p, q)
    if node.op == "max":
        return np.max([_direct_node(c, table, seq, p, q) for c in node.children], axis=0)
    raise InvalidInputError("nested sum inside sum is not supported")


def _coordinate_bounds(node: NormExpr, seq: LqSequence, p, q, ub: float) -> np.ndarray:
    """Per-coordinate box half-widths |x_c| <= ub / N(e_c) for monotone norms."""
    flat = seq.values.reshape(-1)
    bounds = np.empty(flat.shape[0])
    for c in range(flat.shape[0]):
        e = np.zeros_like(seq.values)
        e.reshape(-1)[c] = 1.0
        n = float(_direct_node(node, e[None, ...], seq, p, q)[0])
        bounds[c] = ub / n if n > 0 else ub
    return bounds


def brute_force_sum_norm(seq: LqSequence, spec: RegimeSpec,
                         grid_resolution: int = 13, levels: int = 10) -> float:
    """Grid oracle for the regime value, real instances of at most 4 free
    dimensions only."""
    if float(np.abs(seq.values.imag).max()) > 0:
        raise InvalidInputError("brute-force oracle handles real-valued instances only")

    def eval_node(node: NormExpr) -> float:
        if node.op == "atom":
            return float(_direct_node(node, seq.values[None, ...], seq, spec.p, spec.q)[0])
        if node.op == "max":
            return max(eval_node(c) for c in node.children)
        return _grid_sum(node)

    def _grid_sum(node: NormExpr) -> float:
        k = len(node.children)
        flat_dim = seq.values.size
        free = (k - 1) * flat_dim
        if free > 4:
            raise InvalidInputError(f"total free dimension {free} exceeds the brute-force cap 4")
        corner_vals = [float(_direct_node(c, seq.values[None, ...], seq, spec.p, spec.q)[0])
                       for c in node.children]
        ub = min(corner_vals)
        if ub == 0.0:
            return 0.0
        half = np.concatenate([
            _coordinate_bounds(node.children[j], seq, spec.p, spec.q, ub)
            for j in range(k - 1)])
        lo, hi = -half.copy(), half.copy()

        def cost(points: np.ndarray) -> np.ndarray:
            B = points.shape[0]
            parts = points.reshape(B, k - 1, *seq.values.shape).astype(complex)
            last = seq.values[None, ...] - parts.sum(axis=1)
            total = np.zeros(B)
            for j in range(k - 1):
                total += _direct_node(node.children[j], parts[:, j], seq, spec.p, spec.q)
            total += _direct_node(node.children[-1], last, seq, spec.p, spec.q)
            return total

        m = grid_resolution
        best_v, best_x = ub, None
        for _ in range(levels):
            axes = [np.linspace(lo[d], hi[d], m) for d in range(free)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=-1)
            vals = cost(pts)
            i = int(np.argmin(vals))
            if vals[i] < best_v:
                best_v, best_x = float(vals[i]), pts[i]
            x_star = pts[i]
            cell = (hi - lo) / (m - 1)
            new_lo, new_hi = np.empty(free), np.empty(free)
            for d in range(free):
                if math.isclose(x_star[d], lo[d]) or math.isclose(x_star[d], hi[d]):
                    width = hi[d] - lo[d]
                    new_lo[d] = x_star[d] - width
                    new_hi[d] = x_star[d] + width
                else:
                    new_lo[d] = x_star[d] - 1.5 * cell[d]
                    new_hi[d] = x_star[d] + 1.5 * cell[d]
            lo, hi = new_lo, new_hi
        return best_v

    return eval_node(spec.tree)


# -- duality -------------------------------------------------------------------


def sequence_pairing(f: LqSequence, g: LqSequence) -> complex:
    """<(f_i), (g_i)> = sum_i E tr(f_i g_i) (weighted integral when commutative)."""
    if f.kind != g.kind or f.n_items != g.n_items:
        raise InvalidInputError("sequences incompatible for pairing")
    probs = f.space.probs
    if f.kind == "commutative":
        if f.elem_space != g.elem_space:
            raise InvalidInputError("pairing needs a common measure space")
        w = f.elem_space.weights
        return complex(np.einsum("a,s,ias,ias->", probs, w, f.values, g.values))
    if f.values.shape[3] != g.values.shape[2] or f.values.shape[2] != g.values.shape[3]:
        raise InvalidInputError("shapes incompatible for tr(fg)")
    prod = f.values @ g.values
    return complex(np.einsum("a,iaxx->", probs, prod))


def duality_gap(f: LqSequence, g: LqSequence, p: float, q: float, *, seed: int = 0) -> dict:
    """Pairing vs the product of dual regime norms, each optimized with 2
    restarts of at most 300 iterations; ratio <= 1 + 1e-3 must hold."""
    restarts, max_iter = 2, 300
    pairing = sequence_pairing(f, g)
    mode = "commutative" if f.kind == "commutative" else "noncommutative"
    spec = regime_select(p, q, mode)
    spec_dual = regime_select(conjugate_exponent(p), conjugate_exponent(q), mode)
    nf = composite_norm(f, spec, restarts=restarts, max_iter=max_iter, seed=seed).value
    ng = composite_norm(g, spec_dual, restarts=restarts, max_iter=max_iter, seed=seed).value
    bound = nf * ng
    ratio = abs(pairing) / bound if bound > 0 else (0.0 if abs(pairing) == 0 else math.inf)
    return {"pairing": pairing, "bound": bound, "ratio": ratio,
            "norm_f": nf, "norm_g": ng}
