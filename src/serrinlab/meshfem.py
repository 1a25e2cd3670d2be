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

Stiffness and mass take the exact rule of each element class.  Affine
elements (no boundary-edge midnode, so every midnode at its edge midpoint)
get the closed forms detJ * sum_de C_de S_de and detJ * M_ref from 6x6
reference matrices, one matrix product over the mesh; only the curved
boundary layer is integrated by the degree-8 rule, with operators built for
those elements alone.  The reference stiffness and mass entries are exact
multiples of 1/6 and 1/360, so K and M store no coupling that vanishes on
an affine element and SuperLU orders only true nonzeros.  Integrals of P2
fields are mass-matrix products, exact per element class; anything else is
integrated by the one degree-4 volume rule (`Mesh.element_ops`), memoized
per mesh: its weights, shape values, Jacobian determinants and points, but
no shape gradients.  `FemField.gradient_at_quad` forms a field's gradient
one quadrature point at a time, from the element Jacobians at that point.
The constant flux R_h = 2 |Omega_h| / |Gamma_h| is one per-mesh value
(`neumann_flux`).  The node -> element incidence is one cached CSR matrix
(`Mesh.node_elements`); patch recovery of second derivatives reads its
patches from it.  Its normal matrices depend on the mesh alone and are
built once per mesh from per-element moments of the sample points; each
field adds its own moments, patch sums by sparse products and one batched
solve.  The patch sums run over blocks of nodes, so the offsets of each
node's patch elements exist for one block at a time, never for the whole
mesh.
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
ASSEMBLY_DEGREE = 8   # quadrature degree of K and M on curved elements only
VOLUME_DEGREE = 4     # quadrature degree of Mesh.element_ops, the volume rule

_FAN_MAX = 24         # spoke cap keeping fan apex angles fat
_GROWTH = 1.6         # ring-to-ring spacing growth walking inward
_HEADROOM = 1.2       # schedule spacing = h/_HEADROOM; strip diagonals with
                      # ring-count transitions reach ~1.56x the local spacing
_RADIAL = 0.75        # radial gap = _RADIAL * spacing; counts quantize the
                      # tangential spacing into [s/2, s], so flatter rings
                      # keep the aspect ratio near 1

# interior sampling points for gradient recovery (barycentric 2/3,1/6,1/6)
_SPR_REF = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])


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


def _determinant(J):
    """det of 2x2 Jacobians J[..., d, k]."""
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


def _inverse_jacobian(J):
    """(detJ, inv) of reference-to-physical Jacobians J[..., d, k] = dx_k/dxi_d.

    inv[..., d, k] = d(xi_d)/d(x_k), i.e. (J^{-1})^T, by cofactors.
    """
    detJ = _determinant(J)
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 1, 0]
    inv[..., 1, 0] = -J[..., 0, 1]
    inv[..., 1, 1] = J[..., 0, 0]
    inv /= detJ[..., None, None]
    return detJ, inv


def _rule(degree):
    """Weights w (Q,), shape values N (Q,6) and gradients dN (Q,6,2) of the
    triangle rule of the given degree."""
    bary, w = triangle_rule(degree)
    ref = bary[:, 1:]  # (xi, eta) = (lambda2, lambda3)
    return w, p2_shape(ref), p2_dshape(ref)


def _jacobian(coords, dN):
    """Jacobians J (T,Q,2,2), J[t, q, d, k] = dx_k/dxi_d, of the elements with
    node coordinates coords (T,6,2) at the points with shape gradients dN
    (Q,6,2)."""
    return np.swapaxes(dN, 1, 2) @ coords[:, None]


def _quad_ops(coords, degree):
    """Operators of the triangle rule of the given degree on the elements
    with node coordinates coords (T,6,2), gradients "grad" (T,Q,6,2) too."""
    w, N, dN = _rule(degree)
    detJ, inv = _inverse_jacobian(_jacobian(coords, dN))
    return {"w": w, "N": N, "detJ": detJ, "grad": dN @ inv, "qp": N @ coords}


@functools.cache
def _reference_matrices():
    """Reference stiffness blocks [S00, S11, S01 + S10] (3,36) and mass (36,),
    S_de = integral of dN_d dN_e^T over the reference triangle.  The degree-4
    rule is exact for both integrands (degree 2 and 4).  Every stiffness
    entry is a multiple of 1/6 and every mass entry one of 1/360, so both are
    rounded to it: the vertex/opposite-midnode stiffness and the
    vertex/adjacent-midnode mass couplings are then exactly zero.  Built on
    first use: importing the module does no numerics."""
    bary, w = triangle_rule(4)
    N, dN = p2_shape(bary[:, 1:]), p2_dshape(bary[:, 1:])
    S = 0.5 * np.einsum("q,qid,qje->deij", w, dN, dN)
    S6 = 6.0 * np.stack([S[0, 0], S[1, 1], S[0, 1] + S[1, 0]]).reshape(3, 36)
    M360 = 360.0 * 0.5 * np.einsum("q,qi,qj->ij", w, N, N).ravel()
    for scaled, unit in ((S6, "1/6"), (M360, "1/360")):
        if np.abs(scaled - np.rint(scaled)).max() > 1e-13:
            raise AssertionError(f"reference entries are not multiples of {unit}")
    return np.rint(S6) / 6.0, np.rint(M360) / 360.0


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
    def element_ops(self):
        """The volume rule (degree VOLUME_DEGREE): weights "w" (Q,), shape
        values "N" (Q,6), Jacobian determinants "detJ" (T,Q) and points "qp"
        (T,Q,2).  No gradients: `FemField.gradient_at_quad` forms them."""
        w, N, dN = _rule(VOLUME_DEGREE)
        coords = self.nodes[self.triangles]
        detJ = _determinant(_jacobian(coords, dN))
        return {"w": w, "N": N, "detJ": detJ, "qp": N @ coords}

    @property
    def curved(self):
        """Indices of the elements holding a boundary-edge midnode.  Every
        other element is affine: its midnodes sit at its edge midpoints."""
        return np.flatnonzero(self.boundary_mask[self.triangles[:, 3:]].any(axis=1))

    def vertex_jacobian(self):
        """(detJ, inv) of the affine map through each element's vertices."""
        v = self.nodes[self.triangles[:, :3]]
        return _inverse_jacobian(np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=1))

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
    """Conforming triangle strip (n_inner + n_outer, 3) between two
    concentric rings.

    Angular merge on exact integer keys: inner step i sits at
    (i + 1) * n_outer, outer step j at (j + 1) * n_inner, and the steps are
    taken in key order with ties to the inner ring, which yields the
    centered 2:1 template and alternating quad splits for aligned rings.  An
    inner step at (i, j) is the triangle (inner i, outer j, inner i+1), an
    outer step (inner i, outer j, outer j+1), indices modulo ring size.
    """
    nA, nB = len(inner_idx), len(outer_idx)
    keys = np.concatenate([np.arange(1, nA + 1) * nB, np.arange(1, nB + 1) * nA])
    outer_step = np.argsort(keys, kind="stable") >= nA
    j = np.cumsum(outer_step) - outer_step
    i = np.arange(nA + nB) - j
    third = np.where(outer_step, outer_idx[(j + 1) % nB], inner_idx[(i + 1) % nA])
    return np.stack([inner_idx[i % nA], outer_idx[j % nB], third], axis=1)


def generate_mesh(domain, h_target):
    """Triangulate a radial domain with target edge length h_target.

    Raises MeshTooFine when the estimated quadratic dof count exceeds the
    cap: SERRINLAB_DOF_CAP if set, else 400k.
    """
    if not 0.0 < h_target < domain.rho0:
        raise InvalidSpec(f"h_target must lie in (0, rho0), got {h_target}")
    text = os.environ.get("SERRINLAB_DOF_CAP", DEFAULT_DOF_CAP)
    try:
        dof_cap = int(text)
    except ValueError:
        raise InvalidSpec(f"SERRINLAB_DOF_CAP is not an integer: {text!r}") from None

    probe = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    r, r1, _ = domain.radius_jet(probe)
    r_max = float(r.max())
    speed_max = float(np.sqrt(r**2 + r1**2).max())
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

    fan = ring_indices[0]
    tri_v = np.vstack([
        np.stack([np.zeros_like(fan), fan, np.roll(fan, -1)], axis=1),
        *(_merge_strip(a, b) for a, b in zip(ring_indices, ring_indices[1:])),
    ])

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

    areas = mesh.element_ops()["detJ"]
    if not (areas > 0).all():
        raise SolverFailure("mesh contains inverted elements")
    return mesh


# -- assembly ---------------------------------------------------------------

@_memo
def assemble_stiffness(mesh):
    """K: Ke = detJ (C00 S00 + C11 S11 + C01 (S01 + S10)), C = inv inv^T, on
    the affine elements; the degree-8 rule on the curved ones."""
    detJ, inv = mesh.vertex_jacobian()
    C = inv @ np.swapaxes(inv, 1, 2)
    coef = detJ[:, None] * np.stack([C[:, 0, 0], C[:, 1, 1], C[:, 0, 1]], axis=1)
    Ke = (coef @ _reference_matrices()[0]).reshape(-1, 6, 6)
    Ke[mesh.curved] = _element_stiffness(_curved_ops(mesh))
    return _scatter(mesh, Ke)


def _curved_ops(mesh):
    """Degree-8 operators of the curved elements alone."""
    return _quad_ops(mesh.nodes[mesh.triangles[mesh.curved]], ASSEMBLY_DEGREE)


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
    """M: Me = detJ M_ref on the affine elements; the degree-8 rule on the
    curved ones."""
    detJ, _ = mesh.vertex_jacobian()
    Me = np.outer(detJ, _reference_matrices()[1]).reshape(-1, 6, 6)
    ops = _curved_ops(mesh)
    Me[mesh.curved] = 0.5 * np.einsum(
        "q,tq,qi,qj->tij", ops["w"], ops["detJ"], ops["N"], ops["N"]
    )
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
    ).tocsr()
    A.eliminate_zeros()    # exact zeros of the affine elements are not stored
    if A.data.base is not None:
        # what remains is a view of the (T*36)-entry buffers: keep only it
        A.data, A.indices = A.data.copy(), A.indices.copy()
    return A


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
    """Scalar P2 field on a mesh; immutable after the solve."""

    def __init__(self, mesh, coeffs, kind="generic"):
        self.mesh = mesh
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.kind = kind
        self._cache = {}
        if self.coeffs.shape != (mesh.n_nodes,):
            raise ValueError("coefficient vector does not match mesh dof count")

    def trace_values(self):
        return self.coeffs[self.mesh.boundary_idx]

    def gradient_at_quad(self):
        """Gradient (T,Q,2) at the volume quadrature points, formed one point
        at a time so that no (T,Q,6,2) array of shape gradients is made."""
        mesh = self.mesh
        _, _, dN = _rule(VOLUME_DEGREE)
        coords = mesh.nodes[mesh.triangles]
        c = self.coeffs[mesh.triangles]
        grad = np.empty((len(c), len(dN), 2))
        for q in range(len(dN)):
            point = dN[q:q + 1]                          # (1,6,2)
            _, inv = _inverse_jacobian(_jacobian(coords, point))
            grad[:, q:q + 1] = np.einsum("tqnk,tn->tqk", point @ inv, c)
        return grad

    def values_at_quad(self):
        return nodal_to_quad(self.mesh, self.coeffs)

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
    _, inv = mesh.vertex_jacobian()
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

    The normal matrices depend on the mesh alone (`_recovery_geometry`); a
    field adds only its element moments G0 = sum_q g_q and G1 = sum_q r_q g_q^T,
    summed over each patch by sparse products block by block of nodes, and
    one batched solve.
    """
    mesh = field.mesh
    geo = _recovery_geometry(mesh)
    gref = np.einsum("qnd,tn->tqd", p2_dshape(_SPR_REF), field.coeffs[mesh.triangles])
    gsamp = np.einsum("tqd,tqdk->tqk", gref, geo["inv"])   # (T,3,2) physical grads
    g0 = gsamp.sum(axis=1)                                 # (T,2)
    g1 = np.einsum("tqk,tql->tkl", geo["r"], gsamp)        # (T,2,2): [k, l] = sum r_k g_l
    moments = np.hstack([g0, g1.reshape(-1, 4)])
    scale = geo["scale"]
    # A^T g per node with design rows [1, (x_q - c_n) / s_n], (n,3,2)
    rhs = np.empty((mesh.n_nodes, 3, 2))
    for rows, P, Dx, Dy in _patch_blocks(mesh, geo["patches"], geo["xbar"], scale):
        block = (P @ moments).reshape(-1, 3, 2)
        block[:, 1:] /= scale[rows, None, None]
        block[:, 1] += Dx @ g0
        block[:, 2] += Dy @ g0
        rhs[rows] = block
    sol = np.linalg.solve(geo["normal"], rhs)              # (n,3,2): gx, gy fits
    grad = sol[:, 0].copy()                                # not a view holding sol
    hxy = 0.5 * (sol[:, 2, 0] + sol[:, 1, 1])
    hess = np.stack([sol[:, 1, 0], sol[:, 2, 1], hxy], 1) / scale[:, None]

    flagged = geo["flagged"]
    if flagged:
        elem_hess = _element_hessians(field)
        for n in flagged:
            elems = geo["patches"][n].indices
            grad[n] = gsamp[elems].mean(axis=(0, 1))
            hess[n] = elem_hess[elems].mean(axis=0)
    return RecoveredDerivatives(grad, hess, flagged)


_BLOCK = 4096   # nodes per block of patch sums


def _node_blocks(patches):
    """(rows, elems, ptr) for each block of _BLOCK consecutive nodes: the
    rows' slice, their patch elements and their row pointer from 0."""
    indptr, n = patches.indptr, patches.shape[0]
    for start in range(0, n, _BLOCK):
        rows = slice(start, min(start + _BLOCK, n))
        first, last = indptr[rows.start], indptr[rows.stop]
        yield rows, patches.indices[first:last], indptr[rows.start:rows.stop + 1] - first


def _patch_blocks(mesh, patches, xbar, scale):
    """(rows, P, Dx, Dy) for each block of `_node_blocks`: its patch rows as
    CSR matrices with ones (P) and with the scaled offsets
    d_ne = (xbar_e - c_n) / s_n of the x and y coordinates (Dx, Dy) as data,
    so that no whole-mesh array of patch entries is made."""
    for rows, elems, ptr in _node_blocks(patches):
        lens = np.diff(ptr)
        shape = (len(lens), patches.shape[1])
        ops = [sp.csr_matrix((np.ones(len(elems)), elems, ptr), shape=shape)]
        s = np.repeat(scale[rows], lens)
        for k in range(2):
            off = xbar[elems, k]
            off -= np.repeat(mesh.nodes[rows, k], lens)
            off /= s
            ops.append(sp.csr_matrix((off, elems, ptr), shape=shape))
        yield rows, *ops


@_memo
def _recovery_geometry(mesh):
    """What patch recovery needs of the mesh alone, for every field on it.

    Each node n fits over the sample points x_q of its patch elements e, in
    the scaled offsets (x_q - c_n) / s_n = r_q / s_n + d_ne, with r_q = x_q - xbar_e
    the offset from the element's sample mean and d_ne = (xbar_e - c_n) / s_n.
    The moments R1 = sum_q r_q and R2 = sum_q r_q r_q^T per element then give
    the normal matrices as patch sums.  R1 is zero only to rounding, which
    1 / s_n amplifies, so it is kept.  Holds the sample Jacobians "inv"
    (T,3,2,2), the offsets "r" (T,3,2), the sample means "xbar" (T,2), the
    scale s_n, the "patches" (`_patch_matrix`), the (n,3,3) normal matrices
    (the identity where a patch cannot support a fit) and the flagged
    nodes.  d_ne is not held: `_patch_blocks` forms it one block of nodes
    at a time, here and in each `_recover`.
    """
    coords = mesh.nodes[mesh.triangles]
    dN = p2_dshape(_SPR_REF)                               # (3,6,2)
    _, inv = _inverse_jacobian(np.einsum("tnk,qnd->tqdk", coords, dN))
    psamp = np.einsum("qn,tnk->tqk", p2_shape(_SPR_REF), coords)
    del coords
    xbar = psamp.mean(axis=1)                              # (T,2)
    lo, hi = psamp.min(axis=1), psamp.max(axis=1)
    r = psamp - xbar[:, None]
    del psamp
    R1 = r.sum(axis=1)                                     # (T,2)
    R2 = np.einsum("tqk,tql->tkl", r, r).reshape(-1, 4)[:, [0, 3, 1]]   # xx, yy, xy

    patches = _patch_matrix(mesh)
    # s_n = max |x_q - c_n| over the patch's points and both coordinates;
    # rounding is monotone, so the patch's extreme coordinates give it exactly
    scale = np.zeros(mesh.n_nodes)
    for rows, elems, ptr in _node_blocks(patches):
        starts = ptr[:-1]
        for k in range(2):
            c = mesh.nodes[rows, k]
            scale[rows] = np.maximum(scale[rows], np.maximum(
                np.maximum.reduceat(hi[elems, k], starts) - c,
                c - np.minimum.reduceat(lo[elems, k], starts),
            ))
    del lo, hi
    # patch sums of a a^T over the sample points, a = [1, r_q / s_n + d_ne]
    normal = np.empty((mesh.n_nodes, 3, 3))
    for rows, P, Dx, Dy in _patch_blocks(mesh, patches, xbar, scale):
        s = scale[rows, None]
        pr1, pr2 = P @ R1 / s, P @ R2 / s**2
        xr1, yr1 = Dx @ R1 / s, Dy @ R1 / s
        rowsum = lambda v: np.add.reduceat(v, P.indptr[:-1])
        dx, dy = Dx.data, Dy.data
        block = normal[rows]
        block[:, 0, 0] = 3.0 * np.diff(P.indptr)
        block[:, 0, 1] = block[:, 1, 0] = pr1[:, 0] + 3.0 * rowsum(dx)
        block[:, 0, 2] = block[:, 2, 0] = pr1[:, 1] + 3.0 * rowsum(dy)
        block[:, 1, 1] = pr2[:, 0] + 2.0 * xr1[:, 0] + 3.0 * rowsum(dx * dx)
        block[:, 2, 2] = pr2[:, 1] + 2.0 * yr1[:, 1] + 3.0 * rowsum(dy * dy)
        block[:, 1, 2] = block[:, 2, 1] = (
            pr2[:, 2] + xr1[:, 1] + yr1[:, 0] + 3.0 * rowsum(dx * dy)
        )
    flagged = np.flatnonzero(np.diff(patches.indptr) < 3)
    normal[flagged] = np.eye(3)
    return {"inv": inv, "r": r, "xbar": xbar, "scale": scale, "patches": patches,
            "normal": normal, "flagged": flagged.tolist()}


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


# -- solvers ----------------------------------------------------------------

def _norm_inf(A):
    """|A|_inf of a symmetric CSR or CSC matrix with no empty row: the sums of
    |data| between consecutive indptr entries are its row sums (column sums,
    equal by symmetry, for CSC), with no copy of the matrix structure."""
    return float(np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max())


def _check_residual(A, x, b, label):
    """Normwise backward error |Ax-b| / (|A|_inf |x| + |b|) must be <= 1e-12."""
    norm_a = _norm_inf(A)
    rel = np.linalg.norm(A @ x - b) / (norm_a * np.linalg.norm(x) + np.linalg.norm(b))
    if rel > 1e-12:
        raise SolverFailure(f"{label}: relative residual {rel:.3e} > 1e-12")
    return rel


def _factor(mesh, keep):
    """K restricted to the nodes `keep` (mask or slice) and its sparse LU.

    K is symmetric with sorted indices, so the CSR arrays of the restriction
    are also those of its CSC form: the restriction is the one copy made.
    A slice pair takes the block in one pass; a mask pair would pick entries
    pairwise, so a mask takes rows, then columns."""
    K = assemble_stiffness(mesh)
    R = K[keep, keep] if isinstance(keep, slice) else K[keep][:, keep]
    A = sp.csc_matrix((R.data, R.indices, R.indptr), shape=R.shape)
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


@_memo
def neumann_flux(mesh):
    """R_h = 2 |Omega_h| / |Gamma_h| = 2 sum(m) / sum(g), the constant flux of
    the Neumann torsion problem on this mesh.  The discrete measures come
    from the same quadratures as the load vectors, so the singular system
    is compatible to roundoff."""
    return SOURCE * lumped_mass(mesh).sum() / boundary_load_vector(mesh).sum()


def solve_torsion_neumann(mesh) -> FemField:
    """Solve Laplacian(u) = 2 with u_nu = neumann_flux(mesh), zero mean over
    Omega; the residual is checked against the full K."""
    b = neumann_flux(mesh) * boundary_load_vector(mesh) - SOURCE * lumped_mass(mesh)
    u = solve_zero_mean(mesh, b)
    _check_residual(assemble_stiffness(mesh), u, b, "torsion-neumann")
    return FemField(mesh, u, kind="torsion_neumann")


def solve_harmonic_dirichlet(mesh, g) -> FemField:
    """Harmonic field with prescribed boundary trace g, an array in theta order."""
    vals = np.asarray(g, dtype=float)
    if vals.shape != mesh.boundary_idx.shape:
        raise ValueError("boundary data does not cover all boundary nodes")
    u = np.zeros(mesh.n_nodes)
    u[mesh.boundary_idx] = vals
    return _solve_interior(mesh, u, np.zeros(mesh.n_nodes), "harmonic_dirichlet")


# -- integration -------------------------------------------------------------

def nodal_to_quad(mesh, nodal):
    """Interpolate nodal values to quadrature points, shape (T, Q)."""
    ops = mesh.element_ops()
    return np.einsum("qn,tn->tq", ops["N"], np.asarray(nodal)[mesh.triangles])


def recovered_hessian_at_quad(field):
    """Recovered Hessian components [hxx, hyy, hxy] at volume quadrature points."""
    return [nodal_to_quad(field.mesh, h) for h in field.recovered.hessian.T]


def quad_integral(mesh, vals_tq) -> float:
    """Integral of values (T, Q) at the volume quadrature points."""
    ops = mesh.element_ops()
    return float(0.5 * np.einsum("q,tq,tq->", ops["w"], ops["detJ"], vals_tq))


# -- point evaluation -------------------------------------------------------

def eval_gradient(field, point, elements):
    """FE gradient of field at point, in the element among `elements` that
    holds it deepest: the largest smallest barycentric coordinate of point
    under each element's vertex map."""
    mesh = field.mesh
    tris = mesh.triangles[elements]
    v = mesh.nodes[tris[:, :3]]
    _, inv = _inverse_jacobian(np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=1))
    ref = np.einsum("edk,ek->ed", inv, point - v[:, 0])
    e = int(np.argmax(np.minimum(ref.min(axis=1), 1.0 - ref.sum(axis=1))))
    coords = mesh.nodes[tris[e]]
    dN = p2_dshape(ref[e])[0]
    J = np.einsum("nk,nd->dk", coords, dN)   # J[d,k] = dx_k/dxi_d
    return np.linalg.solve(J, field.coeffs[tris[e]] @ dN)
