"""Quadratic FEM on mapped polar meshes of star-shaped domains.

The mesh is built from graded annular rings conforming to r(theta), closed
by a regular fan at the center.  Boundary edges are curved (isoparametric
quadratic geometry) with all boundary nodes placed exactly on the analytic
curve; interior elements are straight.  The outermost rings are angularly
refined so that boundary quantities sit well below interior FEM error.

Solvers cover the three boundary value problems used downstream:
constant-source Dirichlet, constant-flux Neumann, and harmonic extension of
boundary data.  Each factors K restricted to a node set: the interior nodes,
or for Neumann every node but the grounded centre, then a shift to zero
mean; that one factor per mesh is cached and shared with the eigen-solvers.
Every system takes a single LU solve; the source-problem solves check
their normwise backward error.

Element operators are batched matrix products over all elements.  The
node -> element incidence is one cached CSR matrix (`Mesh.node_elements`);
patch recovery of second derivatives reads its patches from it and fits
every node in one batched least-squares solve per block of nodes.
"""

import functools
import math
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._quadrature import gauss_legendre_01, triangle_rule
from .errors import DegeneratePatch, InvalidSpec, MeshTooFine, SolverFailure

SOURCE = 2.0          # constant Laplacian of the torsion field in the plane
DEFAULT_DOF_CAP = 400_000
BOUNDARY_REFINE = 4   # angular refinement factor of the outermost rings
ASSEMBLY_DEGREE = 8   # quadrature degree for matrix assembly
VOLUME_DEGREE = 4     # quadrature degree for volume_integral

_FAN_MAX = 24         # spoke cap keeping fan apex angles fat
_GROWTH = 1.6         # ring-to-ring spacing growth walking inward
_HEADROOM = 1.2       # schedule spacing = h/_HEADROOM; strip diagonals with
                      # ring-count transitions reach ~1.56x the local spacing
_RADIAL = 0.75        # radial gap = _RADIAL * spacing; counts quantize the
                      # tangential spacing into [s/2, s], so flatter rings
                      # keep the aspect ratio near 1

# interior sampling points for gradient recovery (barycentric 2/3,1/6,1/6)
_SPR_REF = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
# nodes per recovery block: keeps the per-sample-point arrays of a block near
# 10 MB, where all nodes of an h=0.025 mesh at once would take ~340 MB
_RECOVERY_BLOCK = 2048


# -- reference element ------------------------------------------------------

def p2_shape(ref):
    """P2 Lagrange values N (Q,6) at reference points (Q,2)."""
    ref = np.atleast_2d(ref)
    xi, eta = ref[:, 0], ref[:, 1]
    lam = 1.0 - xi - eta
    return np.stack(
        [
            lam * (2 * lam - 1),
            xi * (2 * xi - 1),
            eta * (2 * eta - 1),
            4 * xi * eta,
            4 * eta * lam,
            4 * xi * lam,
        ],
        axis=1,
    )


def p2_dshape(ref):
    """P2 gradients dN (Q,6,2) with respect to reference coordinates."""
    ref = np.atleast_2d(ref)
    xi, eta = ref[:, 0], ref[:, 1]
    lam = 1.0 - xi - eta
    z = np.zeros_like(xi)
    dxi = np.stack(
        [1 - 4 * lam, 4 * xi - 1, z, 4 * eta, -4 * eta, 4 * (lam - xi)], 1
    )
    deta = np.stack(
        [1 - 4 * lam, z, 4 * eta - 1, 4 * xi, 4 * (lam - eta), -4 * xi], 1
    )
    return np.stack([dxi, deta], axis=2)


# constant reference Hessians (xx, yy, xy) per shape function
_P2_D2 = np.array(
    [
        [4.0, 4.0, 4.0],
        [4.0, 0.0, 0.0],
        [0.0, 4.0, 0.0],
        [0.0, 0.0, 4.0],
        [0.0, -8.0, -4.0],
        [-8.0, 0.0, -4.0],
    ]
)

_EDGE_SHAPE = lambda s: np.stack(
    [(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)], axis=1
)
_EDGE_DSHAPE = lambda s: np.stack([4 * s - 3, 4 * s - 1, 4 - 8 * s], axis=1)


def _memo(fn):
    """Store fn(obj, *args) in obj._cache under (fn, args): each quantity
    derived from a mesh or a field is computed once, on first use."""
    @functools.wraps(fn)
    def cached(obj, *args):
        key = (fn, args)
        if key not in obj._cache:
            obj._cache[key] = fn(obj, *args)
        return obj._cache[key]
    return cached


def _inverse_jacobian(J):
    """(detJ, inv) of reference-to-physical Jacobians J[..., d, k] = dx_k/dxi_d.

    inv[..., d, k] = d(xi_d)/d(x_k), i.e. (J^{-1})^T, by cofactors.
    """
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 1, 0]
    inv[..., 1, 0] = -J[..., 0, 1]
    inv[..., 1, 1] = J[..., 0, 0]
    return detJ, inv / detJ[..., None, None]


# -- mesh -------------------------------------------------------------------

class Mesh:
    """Conforming P2 triangulation of a radial domain.

    triangles rows are [v0, v1, v2, m12, m20, m01] node indices; node 0 is
    the domain center.  Boundary nodes (vertices and edge midnodes) lie on
    the analytic curve and are stored ordered by theta.
    """

    def __init__(self, domain, nodes, triangles, n_vertices, boundary_idx,
                 boundary_theta, boundary_edges, h_target, h_max):
        self.domain = domain
        self.nodes = nodes
        self.triangles = triangles
        self.n_vertices = n_vertices
        self.boundary_idx = boundary_idx
        self.boundary_theta = boundary_theta
        self.boundary_edges = boundary_edges
        self.h_target = h_target
        self.h_max = h_max
        self.n_nodes = nodes.shape[0]
        self.boundary_mask = np.zeros(self.n_nodes, dtype=bool)
        self.boundary_mask[boundary_idx] = True
        self._cache = {}

    @_memo
    def element_ops(self, degree):
        """Element operators of the triangle rule of the given degree."""
        bary, w = triangle_rule(degree)
        ref = bary[:, 1:]  # (xi, eta) = (lambda2, lambda3)
        N = p2_shape(ref)
        dN = p2_dshape(ref)
        coords = self.nodes[self.triangles]            # (T,6,2)
        J = np.swapaxes(dN, 1, 2) @ coords[:, None]    # (T,Q,2,2)
        detJ, inv = _inverse_jacobian(J)
        return {"w": w, "N": N, "detJ": detJ, "grad": dN @ inv, "qp": N @ coords}

    @property
    @_memo
    def node_elements(self):
        """CSR node -> element incidence (n_nodes, n_elements).

        Row n lists the elements incident to node n in ascending order:
        ``node_elements[n].indices``.
        """
        flat = self.triangles.ravel()
        # a stable sort of the element-major node list keeps each row's
        # elements ascending
        elems = np.argsort(flat, kind="stable") // 6
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.n_nodes), out=indptr[1:])
        return sp.csr_matrix(
            (np.ones(len(elems), dtype=bool), elems, indptr),
            shape=(self.n_nodes, len(self.triangles)),
        )

    def qualities(self):
        """2 * inradius / circumradius per element (straight version)."""
        v = self.nodes[self.triangles[:, :3]]
        l0, l1, l2 = self.edge_lengths().T
        area = 0.5 * np.abs(
            (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
            - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
        )
        s = 0.5 * (l0 + l1 + l2)
        return 8.0 * area**2 / (s * l0 * l1 * l2)

    def edge_lengths(self):
        v = self.nodes[self.triangles[:, :3]]
        return np.stack(
            [
                np.linalg.norm(v[:, 1] - v[:, 2], axis=1),
                np.linalg.norm(v[:, 2] - v[:, 0], axis=1),
                np.linalg.norm(v[:, 0] - v[:, 1], axis=1),
            ],
            axis=1,
        )


def _ring_schedule(r_max, speed_max, h, refine):
    """Ring radii and node counts, inside-out.

    Radial gaps grow geometrically away from the boundary (angular
    refinement `refine` at the outermost rings).  Node counts are quantized
    to levels 6 * 2^k so consecutive rings are either aligned or in an exact
    2:1 ratio, which keeps the strip triangles well shaped and phase-aligned.
    """
    t_list, s_list = [1.0], [h / refine]
    while True:
        s_next = min(h, _GROWTH * s_list[-1])
        t_next = t_list[-1] - _RADIAL * s_next / r_max
        if t_next * r_max <= 1.2 * h:
            if t_next * r_max > 0.3 * h:
                t_list.append(t_next)
                s_list.append(s_next)
            break
        if t_next <= 0.0:
            break
        t_list.append(t_next)
        s_list.append(s_next)
    t_list.reverse()
    s_list.reverse()

    def level(natural):
        n = 6
        while n < natural:
            n *= 2
        return n

    counts = [
        level(2.0 * math.pi * t * speed_max / s) for t, s in zip(t_list, s_list)
    ]
    for j in range(1, len(counts)):
        counts[j] = max(counts[j], counts[j - 1])          # non-decreasing outward
    for j in range(len(counts) - 1, 0, -1):
        counts[j - 1] = max(counts[j - 1], counts[j] // 2)  # at most 2:1 per strip
    while counts and counts[0] > _FAN_MAX:
        # keep the central fan fat: prepend halved rings toward the center
        t_list.insert(0, 0.55 * t_list[0])
        counts.insert(0, counts[0] // 2)
    return t_list, counts


def _merge_strip(inner_idx, outer_idx):
    """Conforming triangle strip between two concentric rings.

    Deterministic two-pointer angular merge using exact integer comparisons;
    ties advance the inner ring, which yields the centered 2:1 template and
    alternating quad splits for aligned rings.
    """
    nA, nB = len(inner_idx), len(outer_idx)
    tris = []
    i = j = 0
    while i < nA or j < nB:
        take_outer = j < nB and (i == nA or (j + 1) * nA < (i + 1) * nB)
        if take_outer:
            tris.append((inner_idx[i % nA], outer_idx[j % nB], outer_idx[(j + 1) % nB]))
            j += 1
        else:
            tris.append((inner_idx[i % nA], outer_idx[j % nB], inner_idx[(i + 1) % nA]))
            i += 1
    return tris


def generate_mesh(domain, h_target, dof_cap=None):
    """Triangulate a radial domain with target edge length h_target.

    Raises MeshTooFine when the estimated quadratic dof count exceeds the
    cap (default 400k, overridable via SERRINLAB_DOF_CAP).
    """
    if not 0.0 < h_target < domain.rho0:
        raise InvalidSpec(f"h_target must lie in (0, rho0), got {h_target}")
    if dof_cap is None:
        text = os.environ.get("SERRINLAB_DOF_CAP", DEFAULT_DOF_CAP)
        try:
            dof_cap = int(text)
        except ValueError:
            raise InvalidSpec(f"SERRINLAB_DOF_CAP is not an integer: {text!r}") from None

    probe = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    r_max = float(domain.radius(probe).max())
    speed_max = float(
        np.sqrt(domain.radius(probe) ** 2 + domain.radius_d1(probe) ** 2).max()
    )
    # lower bound checked before the O(r_max/h) schedule: the outer ring has
    # at least dof_min / 2 vertices, each with a boundary midnode
    dof_min = 2 * (2.0 * math.pi * speed_max * BOUNDARY_REFINE * _HEADROOM / h_target)
    if dof_min > dof_cap:
        raise MeshTooFine(
            f"dof count at least {dof_min:.3g} exceeds cap {dof_cap} (h_target={h_target})"
        )
    t_ring, n_ring = _ring_schedule(
        r_max, speed_max, h_target / _HEADROOM, BOUNDARY_REFINE
    )

    n_vert = 1 + sum(n_ring)
    n_tri = n_ring[0] + sum(n_ring[j] + n_ring[j + 1] for j in range(len(n_ring) - 1))
    n_edge = (3 * n_tri + n_ring[-1]) // 2
    if n_vert + n_edge > dof_cap:
        raise MeshTooFine(
            f"estimated dof {n_vert + n_edge} exceeds cap {dof_cap} "
            f"(h_target={h_target})"
        )

    verts = [np.asarray(domain.center, dtype=float)]
    ring_indices = []
    next_idx = 1
    for t, n in zip(t_ring, n_ring):
        theta = 2.0 * np.pi * np.arange(n) / n
        pts = domain.center + (t * domain.radius(theta))[:, None] * np.stack(
            [np.cos(theta), np.sin(theta)], axis=1
        )
        verts.append(pts)
        ring_indices.append(np.arange(next_idx, next_idx + n))
        next_idx += n
    vertices = np.vstack([verts[0][None, :], *verts[1:]])

    tris = [(0, ring_indices[0][i], ring_indices[0][(i + 1) % n_ring[0]])
            for i in range(n_ring[0])]
    for j in range(len(n_ring) - 1):
        tris.extend(_merge_strip(ring_indices[j], ring_indices[j + 1]))
    tri_v = np.array(tris, dtype=np.int64)

    # edge midnodes: slots (v1,v2), (v2,v0), (v0,v1) of each triangle, each
    # edge numbered by its first appearance in that element-major order
    n_v = vertices.shape[0]
    ends = np.sort(tri_v[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
    edge_keys, first, slot_edge = np.unique(
        ends[:, 0] * n_v + ends[:, 1], return_index=True, return_inverse=True
    )
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    tri6 = np.empty((tri_v.shape[0], 6), dtype=np.int64)
    tri6[:, :3] = tri_v
    tri6[:, 3:] = n_v + rank[slot_edge].reshape(-1, 3)
    mid_ends = ends[np.sort(first)]
    extra = 0.5 * (vertices[mid_ends[:, 0]] + vertices[mid_ends[:, 1]])

    # boundary edges join consecutive outer-ring vertices; their midnodes sit
    # on the curve at 2*pi*(i+0.5)/n_b, the vertices at 2*pi*i/n_b
    n_b = n_ring[-1]
    outer = ring_indices[-1]
    nxt = np.roll(outer, -1)
    mids = n_v + rank[np.searchsorted(
        edge_keys, np.minimum(outer, nxt) * n_v + np.maximum(outer, nxt)
    )]
    mid_theta = 2.0 * np.pi * (np.arange(n_b) + 0.5) / n_b
    extra[mids - n_v] = domain.boundary_point(mid_theta)
    nodes = np.vstack([vertices, extra])

    b_idx = np.stack([outer, mids], axis=1).ravel()
    b_theta = np.stack([2.0 * np.pi * np.arange(n_b) / n_b, mid_theta], axis=1).ravel()

    mesh = Mesh(
        domain=domain,
        nodes=nodes,
        triangles=tri6,
        n_vertices=n_v,
        boundary_idx=b_idx,
        boundary_theta=b_theta,
        boundary_edges=np.stack([outer, nxt, mids], axis=1),
        h_target=h_target,
        h_max=0.0,
    )
    mesh.h_max = float(mesh.edge_lengths().max())

    areas = mesh.element_ops(VOLUME_DEGREE)["detJ"]
    if not (areas > 0).all():
        raise SolverFailure("mesh contains inverted elements")
    return mesh


# -- assembly ---------------------------------------------------------------

@_memo
def assemble_stiffness(mesh):
    return _scatter(mesh, _element_stiffness(mesh.element_ops(ASSEMBLY_DEGREE)))


def _element_stiffness(ops):
    """Ke (T,6,6) = sum_q c_q G_q G_q^T, c_q = |T| w_q, one batched product per
    quadrature point so that no scaled copy of the (T,Q,6,2) gradients is made."""
    c = 0.5 * ops["w"] * ops["detJ"]               # (T,Q)
    Ke = np.zeros((len(c), 6, 6))
    for q in range(c.shape[1]):
        G = ops["grad"][:, q]                      # (T,6,2)
        Ke += c[:, q, None, None] * (G @ np.swapaxes(G, 1, 2))
    return Ke


@_memo
def assemble_mass(mesh):
    ops = mesh.element_ops(ASSEMBLY_DEGREE)
    Me = 0.5 * np.einsum("q,tq,qi,qj->tij", ops["w"], ops["detJ"], ops["N"], ops["N"])
    return _scatter(mesh, Me)


def lumped_mass(mesh):
    """Row sums of the mass matrix: m_i = integral of phi_i over Omega."""
    return np.asarray(assemble_mass(mesh).sum(axis=1)).ravel()


def _scatter(mesh, local):
    T = mesh.triangles
    rows = np.repeat(T, 6, axis=1).ravel()
    cols = np.tile(T, (1, 6)).ravel()
    A = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return A.tocsr()


@_memo
def boundary_load_vector(mesh):
    """Vector g_i = integral of phi_i over the curved boundary edges."""
    s, w = gauss_legendre_01(6)
    N = _EDGE_SHAPE(s)            # (Q,3)
    dN = _EDGE_DSHAPE(s)          # (Q,3)
    P = mesh.nodes[mesh.boundary_edges]     # (E,3,2)
    dX = np.einsum("qn,enk->eqk", dN, P)
    speed = np.linalg.norm(dX, axis=2)      # (E,Q)
    loc = np.einsum("q,eq,qn->en", w, speed, N)
    g = np.zeros(mesh.n_nodes)
    np.add.at(g, mesh.boundary_edges.ravel(), loc.ravel())
    return g


# -- fields -----------------------------------------------------------------

class FemField:
    """Scalar P2 field on a mesh; immutable after the solve.

    Fields representing a known analytic function (e.g. the paraboloid
    q = |x-z|^2/2) may carry ``analytic_gradient``/``analytic_hessian``
    callables; derivative recovery then returns the closed forms instead of
    patch fits, making downstream identity algebra exact for such fields.
    """

    def __init__(self, mesh, coeffs, kind="generic"):
        self.mesh = mesh
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.kind = kind
        self.analytic_gradient = None   # callable points (P,2) -> (P,2)
        self.analytic_hessian = None    # callable points (P,2) -> (P,3) xx,yy,xy
        self._cache = {}
        if self.coeffs.shape != (mesh.n_nodes,):
            raise ValueError("coefficient vector does not match mesh dof count")

    def trace_values(self):
        return self.coeffs[self.mesh.boundary_idx]

    def shifted(self, c):
        """The field plus c, keeping the discrete flux data of a Neumann solve."""
        out = FemField(self.mesh, self.coeffs + c, self.kind)
        for name in ("R_disc", "area_h", "perimeter_h"):
            if hasattr(self, name):
                setattr(out, name, getattr(self, name))
        return out

    def gradient_at_quad(self, degree=VOLUME_DEGREE):
        ops = self.mesh.element_ops(degree)
        return np.einsum("tqnk,tn->tqk", ops["grad"], self.coeffs[self.mesh.triangles])

    def values_at_quad(self, degree=VOLUME_DEGREE):
        return nodal_to_quad(self.mesh, self.coeffs, degree)

    @property
    @_memo
    def recovered(self):
        """Patch-recovered nodal gradient and Hessian (superconvergent)."""
        return _recover(self)


class RecoveredDerivatives:
    def __init__(self, gradient, hessian, flagged):
        self.gradient = gradient    # (n, 2)
        self.hessian = hessian      # (n, 3): xx, yy, xy
        self.flagged = flagged      # node indices that fell back to element values


def _element_hessians(field):
    """Constant per-element Hessian from the affine part of the map."""
    mesh = field.mesh
    v = mesh.nodes[mesh.triangles[:, :3]]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=1)  # (T,2,2)
    _, inv = _inverse_jacobian(J)
    c = field.coeffs[mesh.triangles]               # (T,6)
    h_ref = c @ _P2_D2                             # (T,3): xx, yy, xy in ref coords
    Href = np.empty((len(c), 2, 2))
    Href[:, 0, 0] = h_ref[:, 0]
    Href[:, 1, 1] = h_ref[:, 1]
    Href[:, 0, 1] = Href[:, 1, 0] = h_ref[:, 2]
    Hph = np.einsum("tdi,tde,tej->tij", inv, Href, inv)
    return np.stack([Hph[:, 0, 0], Hph[:, 1, 1], 0.5 * (Hph[:, 0, 1] + Hph[:, 1, 0])], 1)


def _recover(field):
    """Superconvergent patch recovery of nodal gradients and Hessians.

    Element gradients are sampled at interior points and fitted with a
    linear polynomial per node patch; the fit value at the node is the
    recovered gradient, its slope the recovered Hessian.  Patches with
    fewer than 3 elements are extended by one vertex ring; nodes whose
    patch cannot support a fit fall back to element values and are flagged.

    All fits are one batched least-squares problem over the (node, element)
    pairs of a CSR patch matrix, taken in blocks of _RECOVERY_BLOCK nodes
    so that the transient arrays do not grow with the mesh.
    """
    mesh = field.mesh
    if field.analytic_gradient is not None:
        grad = field.analytic_gradient(mesh.nodes)
        hess = field.analytic_hessian(mesh.nodes)
        return RecoveredDerivatives(grad, hess, [])
    tris = mesh.triangles
    coords = mesh.nodes[tris]
    dN = p2_dshape(_SPR_REF)                       # (3,6,2)
    _, inv = _inverse_jacobian(np.einsum("tnk,qnd->tqdk", coords, dN))
    gref = np.einsum("qnd,tn->tqd", dN, field.coeffs[tris])
    gsamp = np.einsum("tqd,tqdk->tqk", gref, inv)          # (T,3,2) physical grads
    psamp = np.einsum("qn,tnk->tqk", p2_shape(_SPR_REF), coords)

    patches = _patch_matrix(mesh)
    grad = np.zeros((mesh.n_nodes, 2))
    hess = np.zeros((mesh.n_nodes, 3))
    for n0 in range(0, mesh.n_nodes, _RECOVERY_BLOCK):
        block = slice(n0, n0 + _RECOVERY_BLOCK)
        grad[block], hess[block] = _fit_patches(
            patches[block], mesh.nodes[block], gsamp, psamp
        )

    flagged = np.flatnonzero(np.diff(patches.indptr) < 3).tolist()
    if flagged:
        elem_hess = _element_hessians(field)
        for n in flagged:
            elems = patches[n].indices
            grad[n] = gsamp[elems].mean(axis=(0, 1))
            hess[n] = elem_hess[elems].mean(axis=0)
    return RecoveredDerivatives(grad, hess, flagged)


def _patch_matrix(mesh):
    """CSR node -> patch elements: the incident elements, or for a node with
    fewer than 3 of them, every element sharing a vertex with one of them."""
    incid = mesh.node_elements
    counts = np.diff(incid.indptr)
    if not counts.all():
        raise DegeneratePatch(f"node {np.argmin(counts)} has no incident elements")
    small = counts < 3
    if not small.any():
        return incid
    n_t = len(mesh.triangles)
    elem_verts = sp.csr_matrix(
        (np.ones(3 * n_t, dtype=bool), mesh.triangles[:, :3].ravel(),
         np.arange(0, 3 * n_t + 1, 3)),
        shape=(n_t, mesh.n_nodes),
    )
    grown = incid[small] @ elem_verts @ incid
    grown.sort_indices()
    rows = np.concatenate([np.flatnonzero(~small), np.flatnonzero(small)])
    return sp.vstack([incid[~small], grown], format="csr")[np.argsort(rows)]


def _fit_patches(patches, centres, gsamp, psamp):
    """Linear least-squares fits of the sampled gradients over each row of
    `patches` about its node `centres` (n,2): the fitted values (n,2) and
    symmetric slopes (n,3).  Rows of fewer than 3 elements get no fit; their
    values are meaningless and left to the caller's fallback."""
    lens = np.diff(patches.indptr)
    starts = 3 * patches.indptr[:-1]                   # first sample point per row
    elems = patches.indices
    pts = (psamp[elems] - np.repeat(centres, lens, axis=0)[:, None]).reshape(-1, 2)
    scale = np.maximum.reduceat(np.abs(pts.ravel()), 2 * starts)
    # rows [1, x, y] of the design matrix and the data [gx, gy], per point
    a = np.ones((3, len(pts)))
    a[1:] = (pts / np.repeat(scale, 3 * lens)[:, None]).T
    b = np.concatenate([a, gsamp[elems].reshape(-1, 2).T])
    # A^T [A g] per row, (n,3,5); a row without a fit solves the identity
    normal = np.moveaxis(np.add.reduceat(a[:, None] * b, starts, axis=2), 2, 0)
    normal[lens < 3, :, :3] = np.eye(3)
    sol = np.linalg.solve(normal[..., :3], normal[..., 3:])  # (n,3,2): gx, gy fits
    hxy = 0.5 * (sol[:, 2, 0] + sol[:, 1, 1])
    return sol[:, 0], np.stack([sol[:, 1, 0], sol[:, 2, 1], hxy], 1) / scale[:, None]


# -- solvers ----------------------------------------------------------------

def _check_residual(A, x, b, label):
    """Normwise backward error |Ax-b| / (|A|_inf |x| + |b|) must be <= 1e-12."""
    norm_a = float(abs(A).sum(axis=1).max())
    rel = np.linalg.norm(A @ x - b) / (norm_a * np.linalg.norm(x) + np.linalg.norm(b))
    if rel > 1e-12:
        raise SolverFailure(f"{label}: relative residual {rel:.3e} > 1e-12")
    return rel


def _factor(mesh, keep):
    """K restricted to the nodes `keep` (mask or slice) and its sparse LU."""
    A = assemble_stiffness(mesh)[keep][:, keep].tocsc()
    # symmetric minimum degree: less than half the fill of the default COLAMD
    return A, spla.splu(A, permc_spec="MMD_AT_PLUS_A")


def _solve_interior(mesh, u, b, kind):
    """Fill u on the interior nodes so that (K u)_i = b_i there; the boundary
    values of u stay.  Each Dirichlet problem is solved once, so no cache."""
    free = ~mesh.boundary_mask
    A, lu = _factor(mesh, free)
    rhs = (b - assemble_stiffness(mesh) @ u)[free]
    u[free] = lu.solve(rhs)
    if np.linalg.norm(rhs) > 0:
        _check_residual(A, u[free], rhs, kind.replace("_", "-"))
    return FemField(mesh, u, kind=kind)


@_memo
def _zero_mean_factor(mesh):
    """LU of K with the centre grounded, and the lumped-mass mean weights."""
    m = lumped_mass(mesh)
    return _factor(mesh, slice(1, None))[1], m / m.sum()


def solve_zero_mean(mesh, b):
    """Solve K u = b, m^T u = 0 (m the lumped mass) for compatible b, sum(b) = 0.

    K is singular with the constants as kernel: the centre (node 0) is
    grounded and u shifted to zero mean, which leaves K u unchanged.  The
    factor is cached, shared by the Neumann solve and both eigenproblems.
    """
    lu, weights = _zero_mean_factor(mesh)
    u = np.zeros(mesh.n_nodes)
    u[1:] = lu.solve(b[1:])
    return u - weights @ u


def solve_torsion_dirichlet(mesh) -> FemField:
    """Solve Laplacian(u) = 2 with u = 0 on the boundary."""
    b = -SOURCE * lumped_mass(mesh)
    return _solve_interior(mesh, np.zeros(mesh.n_nodes), b, "torsion_dirichlet")


def solve_torsion_neumann(mesh) -> FemField:
    """Solve Laplacian(u) = 2 with u_nu = R_disc, zero mean over Omega.

    R_disc = 2 |Omega_h| / |Gamma_h| uses the discrete measures produced by
    the same quadratures as the load vectors, so the singular system is
    compatible to roundoff; the residual is checked against the full K.
    """
    m = lumped_mass(mesh)
    g = boundary_load_vector(mesh)
    area_h = m.sum()
    perim_h = g.sum()
    r_disc = SOURCE * area_h / perim_h
    b = r_disc * g - SOURCE * m
    u = solve_zero_mean(mesh, b)
    _check_residual(assemble_stiffness(mesh), u, b, "torsion-neumann")
    field = FemField(mesh, u, kind="torsion_neumann")
    field.R_disc = r_disc
    field.area_h = area_h
    field.perimeter_h = perim_h
    return field


def solve_harmonic_dirichlet(mesh, g) -> FemField:
    """Harmonic field with prescribed boundary trace g.

    g is an array in boundary-node order or a callable of theta.
    """
    vals = np.asarray(g(mesh.boundary_theta) if callable(g) else g, dtype=float)
    if vals.shape != mesh.boundary_idx.shape:
        raise ValueError("boundary data does not cover all boundary nodes")
    u = np.zeros(mesh.n_nodes)
    u[mesh.boundary_idx] = vals
    return _solve_interior(mesh, u, np.zeros(mesh.n_nodes), "harmonic_dirichlet")


# -- integration -------------------------------------------------------------

def volume_integral(mesh, integrand, degree=VOLUME_DEGREE) -> float:
    """Integrate over the mesh with the order-4 triangle rule.

    integrand: callable(points (P,2)) -> (P,), a nodal array (n_nodes,),
    or a FemField.
    """
    if isinstance(integrand, FemField):
        integrand = integrand.coeffs
    if callable(integrand):
        qp = quad_points(mesh, degree)
        vals = np.asarray(integrand(qp.reshape(-1, 2))).reshape(qp.shape[:2])
    else:
        vals = np.asarray(integrand, dtype=float)
        if vals.shape == (mesh.n_nodes,):
            vals = nodal_to_quad(mesh, vals, degree)  # else already (T, Q)
    return quad_integral(mesh, vals, degree)


def nodal_to_quad(mesh, nodal, degree=VOLUME_DEGREE):
    """Interpolate nodal values to quadrature points, shape (T, Q)."""
    ops = mesh.element_ops(degree)
    return np.einsum("qn,tn->tq", ops["N"], np.asarray(nodal)[mesh.triangles])


def recovered_hessian_at_quad(field):
    """Recovered Hessian components [hxx, hyy, hxy] at volume quadrature points."""
    return [nodal_to_quad(field.mesh, h) for h in field.recovered.hessian.T]


def quad_integral(mesh, vals_tq, degree=VOLUME_DEGREE) -> float:
    ops = mesh.element_ops(degree)
    return float(0.5 * np.einsum("q,tq,tq->", ops["w"], ops["detJ"], vals_tq))


def quad_points(mesh, degree=VOLUME_DEGREE):
    return mesh.element_ops(degree)["qp"]


# -- point location and evaluation -------------------------------------------

def locate_point(mesh, x, tol=1e-10):
    """Find (element, reference coords) containing physical point x."""
    x = np.asarray(x, dtype=float)
    d = np.linalg.norm(mesh.nodes[: mesh.n_vertices] - x, axis=1)
    near = mesh.node_elements[np.argsort(d)[:4]].indices
    _, first = np.unique(near, return_index=True)
    best = None
    for e in near[np.sort(first)].tolist():   # nearest vertex's elements first
        ref = _invert_map(mesh, e, x)
        if ref is None:
            continue
        lam = np.array([1 - ref[0] - ref[1], ref[0], ref[1]])
        short = -lam.min()
        if short < tol:
            return e, ref
        if best is None or short < best[0]:
            best = (short, e, ref)
    if best is not None and best[0] < 1e-6:
        return best[1], best[2]
    raise ValueError(f"point {x} not located in mesh")


def _invert_map(mesh, elem, x, iters=30):
    coords = mesh.nodes[mesh.triangles[elem]]
    ref = np.array([1 / 3, 1 / 3])
    for _ in range(iters):
        N = p2_shape(ref[None, :])[0]
        dN = p2_dshape(ref[None, :])[0]
        pos = N @ coords
        J = np.einsum("nk,nd->dk", coords, dN)
        try:
            step = np.linalg.solve(J.T, x - pos)
        except np.linalg.LinAlgError:
            return None
        ref = ref + step
        if np.linalg.norm(step) < 1e-14:
            break
        if np.abs(ref).max() > 3:
            return None
    return ref


def eval_gradient(field, elem, ref):
    coords = field.mesh.nodes[field.mesh.triangles[elem]]
    dN = p2_dshape(np.atleast_2d(ref))[0]
    J = np.einsum("nk,nd->dk", coords, dN)   # J[d,k] = dx_k/dxi_d
    gref = field.coeffs[field.mesh.triangles[elem]] @ dN
    return np.linalg.solve(J, gref)
