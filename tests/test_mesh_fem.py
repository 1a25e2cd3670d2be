import itertools
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    degree8_ops,
    domain_or_reject,
    domain_specs,
    fit_order,
    h1_seminorm_error,
    l2_error,
)
from serrinlab._quadrature import _D4_GROUPS, _D8_GROUPS, triangle_rule
from serrinlab.errors import DegeneratePatch, MeshTooFine
from serrinlab.geometry import build_domain
from serrinlab import meshfem, stability
from serrinlab.meshfem import (
    _SPR_REF,
    FemField,
    Mesh,
    _element_stiffness,
    _inverse_jacobian,
    _patch_matrix,
    _recover,
    _reference_matrices,
    _scatter,
    assemble_mass,
    assemble_stiffness,
    boundary_load_vector,
    eval_gradient,
    generate_mesh,
    lumped_mass,
    neumann_flux,
    p2_dshape,
    p2_shape,
    quad_integral,
    solve_harmonic_dirichlet,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)


# -- mesh audits -------------------------------------------------------------


def test_mesh_audit_disk_coarse(disk):
    mesh = generate_mesh(disk, 0.1)
    assert mesh.h_max <= 0.15
    assert mesh.qualities().min() >= 0.3


def test_mesh_quality_other_domains(ellipse, pdisk):
    for dom in (ellipse, pdisk):
        mesh = generate_mesh(dom, 0.1)
        assert mesh.h_max <= 0.15
        assert mesh.qualities().min() >= 0.3


def test_mesh_too_fine(disk):
    with pytest.raises(MeshTooFine):
        generate_mesh(disk, 1e-5)


def test_mesh_too_fine_fails_before_schedule(disk):
    # the ring schedule takes O(1/h) steps; a closed-form lower bound on
    # the dof count rejects h = 1e-9 before it runs
    start = time.process_time()
    with pytest.raises(MeshTooFine):
        generate_mesh(disk, 1e-9)
    assert time.process_time() - start < 1.0


def test_boundary_nodes_on_curve(pdisk):
    mesh = generate_mesh(pdisk, 0.1)
    pts = mesh.nodes[mesh.boundary_idx]
    r_node = np.linalg.norm(pts - pdisk.center, axis=1)
    assert np.abs(r_node - pdisk.radius(mesh.boundary_theta)).max() <= 1e-12
    assert (np.diff(mesh.boundary_theta) > 0).all()


def test_center_is_node_zero(disk_mesh):
    assert np.allclose(disk_mesh.nodes[0], [0.0, 0.0])


def _dict_loop_numbering(domain, vertices, tri_v, n_b):
    """Reference midnode numbering: a dict over the edges of each triangle in
    element-major, slot order (v1,v2), (v2,v0), (v0,v1); the outer ring is the
    last n_b vertices."""
    outer = np.arange(len(vertices) - n_b, len(vertices))
    bnd_theta = {}
    for i in range(n_b):
        a, b = int(outer[i]), int(outer[(i + 1) % n_b])
        bnd_theta[(min(a, b), max(a, b))] = 2.0 * np.pi * (i + 0.5) / n_b
    edge_nodes = {}
    extra = []
    idx = len(vertices)
    tri6 = np.empty((len(tri_v), 6), dtype=np.int64)
    tri6[:, :3] = tri_v
    for t, (a, b, c) in enumerate(tri_v):
        for slot, (p, q) in enumerate(((b, c), (c, a), (a, b))):
            key = (min(int(p), int(q)), max(int(p), int(q)))
            node = edge_nodes.get(key)
            if node is None:
                th = bnd_theta.get(key)
                if th is None:
                    extra.append(0.5 * (vertices[key[0]] + vertices[key[1]]))
                else:
                    extra.append(domain.boundary_point(th))
                node = idx
                edge_nodes[key] = node
                idx += 1
            tri6[t, 3 + slot] = node
    b_idx = np.empty(2 * n_b, dtype=np.int64)
    b_theta = np.empty(2 * n_b)
    edges = []
    for i in range(n_b):
        a, b = int(outer[i]), int(outer[(i + 1) % n_b])
        mid = edge_nodes[(min(a, b), max(a, b))]
        b_idx[2 * i], b_idx[2 * i + 1] = a, mid
        b_theta[2 * i] = 2.0 * np.pi * i / n_b
        b_theta[2 * i + 1] = 2.0 * np.pi * (i + 0.5) / n_b
        edges.append((a, b, mid))
    return {
        "nodes": np.vstack([vertices, np.array(extra)]),
        "triangles": tri6,
        "boundary_idx": b_idx,
        "boundary_theta": b_theta,
        "boundary_edges": np.array(edges, dtype=np.int64),
    }


def test_mesh_numbering_matches_dict_loop(disk, pdisk, ellipse):
    for dom in (disk, pdisk, ellipse):
        mesh = generate_mesh(dom, 0.1)
        nv = mesh.n_vertices
        ref = _dict_loop_numbering(
            dom, mesh.nodes[:nv], mesh.triangles[:, :3], len(mesh.boundary_idx) // 2
        )
        for name, want in ref.items():
            got = getattr(mesh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def _two_pointer_strip(inner_idx, outer_idx):
    """Reference strip: the two-pointer merge, one triangle per step."""
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
    return np.array(tris, dtype=np.int64)


def test_strips_match_two_pointer_loop(disk, pdisk, ellipse):
    pairs = {(6, 6), (6, 12), (24, 24), (24, 48)}
    probe = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    for dom in (disk, pdisk, ellipse):
        r, r1, _ = dom.radius_jet(probe)
        for h in (0.2, 0.1, 0.05):
            _, counts = meshfem._ring_schedule(
                r.max(), np.sqrt(r**2 + r1**2).max(), h / meshfem._HEADROOM,
                meshfem.BOUNDARY_REFINE,
            )
            pairs.update(zip(counts, counts[1:]))
    assert len(pairs) > 4
    for n_inner, n_outer in sorted(pairs):
        inner = np.arange(1, n_inner + 1)
        outer = np.arange(n_inner + 1, n_inner + n_outer + 1)
        got = meshfem._merge_strip(inner, outer)
        want = _two_pointer_strip(inner, outer)
        assert got.dtype == want.dtype and np.array_equal(got, want), (n_inner, n_outer)


# -- quadrature ----------------------------------------------------------------


@pytest.mark.parametrize("groups", [_D4_GROUPS, _D8_GROUPS], ids=["D4", "D8"])
def test_triangle_rule_table_weights_sum_to_one(groups):
    # the expansion renormalizes the weights, which would hide a mistyped one
    total = sum(w * len(set(itertools.permutations(bary))) for w, bary in groups)
    assert abs(total - 1.0) <= 1e-14


@pytest.mark.parametrize("degree", [4, 8])
def test_triangle_rule_integrates_monomials(degree):
    # integral of xi^a eta^b over the reference triangle is a! b! / (a+b+2)!
    bary, w = triangle_rule(degree)
    xi, eta = bary[:, 1], bary[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = 0.5 * w @ (xi**a * eta**b)
            assert abs(got - exact) <= 1e-14 * exact, (a, b)


def _per_element_rel(got, want):
    axes = tuple(range(1, want.ndim))
    return (np.abs(got - want).max(axis=axes) / np.abs(want).max(axis=axes)).max()


def test_element_operators_match_einsum(pdisk, ellipse):
    for dom in (pdisk, ellipse):
        mesh = generate_mesh(dom, 0.1)
        coords = mesh.nodes[mesh.triangles]
        x, y = mesh.nodes.T
        field = FemField(mesh, np.sin(x) * np.cos(2.0 * y) + x * y)
        for degree, ops in ((4, mesh.element_ops()), (8, degree8_ops(mesh))):
            # reference: the einsum forms at the same quadrature points
            bary, _ = triangle_rule(degree)
            N, dN = p2_shape(bary[:, 1:]), p2_dshape(bary[:, 1:])
            detJ, inv = _inverse_jacobian(np.einsum("tnk,qnd->tqdk", coords, dN))
            grad = np.einsum("qnd,tqdk->tqnk", dN, inv)
            qp = np.einsum("qn,tnk->tqk", N, coords)
            assert _per_element_rel(ops["detJ"], detJ) <= 1e-12
            if degree == 4:   # the volume rule keeps no gradients
                want = np.einsum("tqnk,tn->tqk", grad, field.coeffs[mesh.triangles])
                assert _per_element_rel(field.gradient_at_quad(), want) <= 1e-12
            else:
                assert _per_element_rel(ops["grad"], grad) <= 1e-12
            assert _per_element_rel(ops["qp"], qp) <= 1e-12
        Ke = 0.5 * np.einsum(
            "q,tq,tqik,tqjk->tij", ops["w"], ops["detJ"], ops["grad"], ops["grad"]
        )
        assert _per_element_rel(_element_stiffness(ops), Ke) <= 1e-12


def _assert_matches_all_degree8(mesh):
    """K and M equal the degree-8 rule on every element to 1e-12 of max entry."""
    ops = degree8_ops(mesh)
    K8 = _scatter(mesh, _element_stiffness(ops))
    M8 = _scatter(
        mesh, 0.5 * np.einsum("q,tq,qi,qj->tij", ops["w"], ops["detJ"], ops["N"], ops["N"])
    )
    for got, want in ((assemble_stiffness(mesh), K8), (assemble_mass(mesh), M8)):
        assert abs(got - want).max() <= 1e-12 * abs(want).max()


def test_assembly_matches_all_degree8(disk, pdisk, ellipse):
    for dom in (disk, pdisk, ellipse):
        _assert_matches_all_degree8(generate_mesh(dom, 0.1))


# slot pairs whose coupling vanishes on an affine P2 element: (vertex,
# opposite midnode) in the stiffness, (vertex, adjacent midnode) in the mass
_OPPOSITE = ((0, 3), (1, 4), (2, 5))
_ADJACENT = ((0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4))


def test_reference_stiffness_is_exact():
    bary, w = triangle_rule(4)
    N, dN = p2_shape(bary[:, 1:]), p2_dshape(bary[:, 1:])
    S = 0.5 * np.einsum("q,qid,qje->deij", w, dN, dN)
    S6 = 6.0 * np.stack([S[0, 0], S[1, 1], S[0, 1] + S[1, 0]])
    M360 = 360.0 * 0.5 * np.einsum("q,qi,qj->ij", w, N, N)
    assert np.abs(S6 - np.rint(S6)).max() <= 1e-13
    assert np.abs(M360 - np.rint(M360)).max() <= 1e-13
    ref_k, ref_m = _reference_matrices()
    ref_k, ref_m = ref_k.reshape(3, 6, 6), ref_m.reshape(6, 6)
    assert np.array_equal(ref_k, np.rint(S6) / 6.0)
    assert np.array_equal(ref_m, np.rint(M360) / 360.0)
    for a, b in _OPPOSITE:
        assert not ref_k[:, a, b].any() and not ref_k[:, b, a].any()
    for a, b in _ADJACENT:
        assert ref_m[a, b] == 0.0 and ref_m[b, a] == 0.0


def test_stiffness_stores_no_structural_zero(pdisk, ellipse):
    # nor does the mass matrix, for node pairs that no curved element holds
    for dom in (pdisk, ellipse):
        mesh = generate_mesh(dom, 0.1)
        in_curved = np.isin(np.arange(len(mesh.triangles)), mesh.curved)
        held = _scatter(mesh, in_curved[:, None, None] * np.ones((6, 6))).astype(bool)
        affine = np.flatnonzero(~in_curved)
        for A, pairs in ((assemble_stiffness(mesh), _OPPOSITE),
                         (assemble_mass(mesh), _ADJACENT)):
            assert A.has_canonical_format and (A.data != 0).all()
            pattern = A.astype(bool)
            for a, b in pairs:
                rows, cols = mesh.triangles[affine, a], mesh.triangles[affine, b]
                for i, j in ((rows, cols), (cols, rows)):
                    stored = np.asarray(pattern[i, j]) & ~np.asarray(held[i, j])
                    assert not stored.any()


def test_stiffness_is_exactly_symmetric(disk, pdisk, ellipse):
    # so the CSR arrays of each restriction that _factor takes are also its
    # CSC arrays: they equal tocsc()'s, and splu reads the same matrix
    for dom in (disk, pdisk, ellipse):
        mesh = generate_mesh(dom, 0.1)
        K = assemble_stiffness(mesh)
        assert (K != K.T).nnz == 0 and K.has_sorted_indices
        for keep in (~mesh.boundary_mask, slice(1, None)):
            A, _ = meshfem._factor(mesh, keep)
            ref = K[keep][:, keep].tocsc()
            assert A.format == "csc" and A.shape == ref.shape
            for got, want in ((A.data, ref.data), (A.indices, ref.indices),
                              (A.indptr, ref.indptr)):
                assert np.array_equal(got, want)


def test_norm_inf_reads_the_stored_entries(disk_mesh, pdisk_mesh, ellipse_mesh):
    # the |A|_inf of each backward-error check: the full K (CSR) after a
    # Neumann solve and the interior restriction (CSC) after a Dirichlet one
    for mesh in (disk_mesh, pdisk_mesh, ellipse_mesh):
        K = assemble_stiffness(mesh)
        interior = ~mesh.boundary_mask
        for A in (K, K[interior][:, interior].tocsc()):
            want = abs(A).sum(axis=1).max()
            assert abs(meshfem._norm_inf(A) - want) <= 1e-15 * want


def test_curved_elements_are_the_boundary_edge_layer(disk, pdisk, ellipse):
    # the closed-form assembly is exact only where the map is affine
    for dom in (disk, pdisk, ellipse):
        mesh = generate_mesh(dom, 0.1)
        tri = mesh.triangles
        holds = np.isin(tri[:, 3:], mesh.boundary_edges[:, 2]).any(axis=1)
        assert np.array_equal(mesh.curved, np.flatnonzero(holds))
        assert len(mesh.curved) == len(mesh.boundary_edges)
        x = mesh.nodes[tri[~holds]]                    # (T,6,2)
        for slot, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            assert np.array_equal(x[:, 3 + slot], 0.5 * (x[:, a] + x[:, b]))


def test_assembly_builds_no_whole_mesh_degree8_ops(pdisk, monkeypatch):
    # the (T,16,6,2) degree-8 operators of a whole mesh take 68 MB at h=0.025
    quad_ops, built = meshfem._quad_ops, []

    def recording(coords, degree):
        built.append((degree, len(coords)))
        return quad_ops(coords, degree)

    monkeypatch.setattr(meshfem, "_quad_ops", recording)
    mesh = generate_mesh(pdisk, 0.1)
    assemble_stiffness(mesh)
    assemble_mass(mesh)
    assert {n for d, n in built if d == 8} == {len(mesh.curved)}
    assert len(mesh.curved) < len(mesh.triangles)


# -- Dirichlet torsion ---------------------------------------------------------


def test_disk_dirichlet_center_value(disk_dirichlet):
    assert abs(disk_dirichlet.coeffs[0] - (-0.5)) < 1e-6


def test_disk_dirichlet_matches_closed_form(disk_dirichlet):
    err = l2_error(disk_dirichlet, lambda p: 0.5 * ((p**2).sum(1) - 1.0))
    assert err < 1e-7


def test_ellipse_dirichlet_center_value(ellipse_dirichlet):
    assert abs(ellipse_dirichlet.coeffs[0] - (-0.8)) < 1e-5


def test_maximum_principle(disk_dirichlet, ellipse_dirichlet, pdisk_mesh):
    fields = [disk_dirichlet, ellipse_dirichlet, solve_torsion_dirichlet(pdisk_mesh)]
    for f in fields:
        interior = ~f.mesh.boundary_mask
        assert np.abs(f.trace_values()).max() == 0.0
        assert f.coeffs[interior].max() < 0.0


# -- Neumann torsion ------------------------------------------------------------


def test_disk_neumann_paraboloid(disk_neumann):
    u = disk_neumann.coeffs
    r2 = (disk_neumann.mesh.nodes**2).sum(1)
    assert np.abs((u - u[0]) - 0.5 * r2).max() < 1e-6


def test_disk_neumann_flat_trace(disk_neumann):
    tv = disk_neumann.trace_values()
    assert tv.max() - tv.min() <= 1e-6


def test_neumann_discrete_compatibility(disk_neumann, pdisk_neumann):
    # the load R_h g - 2 m of the singular Neumann system sums to zero
    for f in (disk_neumann, pdisk_neumann):
        g = boundary_load_vector(f.mesh)
        assert abs(neumann_flux(f.mesh) * g.sum() - 2.0 * lumped_mass(f.mesh).sum()) <= 1e-10


def test_neumann_zero_mean_gauge(pdisk_neumann):
    mean = lumped_mass(pdisk_neumann.mesh) @ pdisk_neumann.coeffs
    assert abs(mean) < 1e-10


def test_neumann_matches_bordered_system(pdisk):
    # reference: the zero-mean gauge as a Lagrange multiplier,
    # [[K, m], [m^T, 0]] [u; lam] = [b; 0]
    mesh = generate_mesh(pdisk, 0.2)
    f = solve_torsion_neumann(mesh)
    K = assemble_stiffness(mesh)
    m = np.asarray(assemble_mass(mesh).sum(axis=1)).ravel()
    b = neumann_flux(mesh) * boundary_load_vector(mesh) - 2.0 * m
    A = sp.bmat([[K, m[:, None]], [m[None, :], None]], format="csc")
    ref = spla.spsolve(A, np.concatenate([b, [0.0]]))[:-1]
    assert np.abs(f.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_neumann_oscillation_scales_linearly():
    oscs = []
    for eps in (0.0125, 0.025, 0.05):
        dom = build_domain(1.0, [(2, eps, 0.0)])
        osc = []
        for h in (0.1, 0.05):
            f = solve_torsion_neumann(generate_mesh(dom, h))
            tv = f.trace_values()
            osc.append(tv.max() - tv.min())
        # Richardson with rate 2 over the two levels
        oscs.append(osc[1] + (osc[1] - osc[0]) / 3.0)
    slope = fit_order([0.0125, 0.025, 0.05], oscs)
    assert abs(slope - 1.0) <= 0.15
    assert oscs[0] > 0


# -- harmonic Dirichlet -----------------------------------------------------------


def test_harmonic_constant(disk_mesh):
    w = solve_harmonic_dirichlet(disk_mesh, np.ones(len(disk_mesh.boundary_idx)))
    assert np.abs(w.coeffs - 1.0).max() < 1e-12


def test_harmonic_linear(disk_mesh):
    g = disk_mesh.nodes[disk_mesh.boundary_idx, 0]
    w = solve_harmonic_dirichlet(disk_mesh, g)
    assert np.abs(w.coeffs - disk_mesh.nodes[:, 0]).max() < 1e-10


# -- recovery -------------------------------------------------------------------


def test_recover_quadratic_exact(disk_mesh):
    f = FemField(disk_mesh, 0.5 * (disk_mesh.nodes**2).sum(1))
    H = f.recovered.hessian
    interior = np.linalg.norm(disk_mesh.nodes, axis=1) < 0.8
    err = np.abs(H[interior] - np.array([1.0, 1.0, 0.0]))
    assert err.max() < 1e-9


def test_recover_gradient_quadratic(disk_mesh):
    f = FemField(disk_mesh, 0.5 * (disk_mesh.nodes**2).sum(1))
    g = f.recovered.gradient
    interior = np.linalg.norm(disk_mesh.nodes, axis=1) < 0.8
    assert np.abs(g[interior] - disk_mesh.nodes[interior]).max() < 1e-9


def _loop_recover(field):
    """Reference patch recovery: one least-squares solve per node.  Nodes
    whose grown patch holds fewer than 3 elements are listed and left at 0."""
    mesh = field.mesh
    tris = mesh.triangles
    coords = mesh.nodes[tris]
    dN = p2_dshape(_SPR_REF)
    _, inv = _inverse_jacobian(np.einsum("tnk,qnd->tqdk", coords, dN))
    gref = np.einsum("qnd,tn->tqd", dN, field.coeffs[tris])
    gsamp = np.einsum("tqd,tqdk->tqk", gref, inv)
    psamp = np.einsum("qn,tnk->tqk", p2_shape(_SPR_REF), coords)
    node_elems = [[] for _ in range(mesh.n_nodes)]
    for t, row in enumerate(tris):
        for n in row:
            node_elems[n].append(t)
    grad = np.zeros((mesh.n_nodes, 2))
    hess = np.zeros((mesh.n_nodes, 3))
    flagged = []
    for n in range(mesh.n_nodes):
        elems = node_elems[n]
        if len(elems) < 3:
            seen = set(elems)
            for e in list(elems):
                for v in tris[e, :3]:
                    seen.update(node_elems[v])
            elems = sorted(seen)
        if len(elems) < 3:
            flagged.append(n)
            continue
        pts = psamp[elems].reshape(-1, 2) - mesh.nodes[n]
        gs = gsamp[elems].reshape(-1, 2)
        scale = np.abs(pts).max()
        A = np.column_stack([np.ones(len(pts)), pts / scale])
        sol = np.linalg.solve(A.T @ A, A.T @ gs)
        grad[n] = sol[0]
        hess[n] = (
            sol[1, 0] / scale, sol[2, 1] / scale, 0.5 * (sol[2, 0] + sol[1, 1]) / scale
        )
    return grad, hess, flagged


def test_recover_matches_loop_reference(pdisk, ellipse):
    two_modes = build_domain(1.0, [(2, 0.03, 0.04), (3, 0.02, -0.02)])
    for dom in (pdisk, ellipse, two_modes):
        mesh = generate_mesh(dom, 0.1)
        for f in (solve_torsion_dirichlet(mesh), solve_torsion_neumann(mesh)):
            rec = _recover(f)
            grad, hess, flagged = _loop_recover(f)
            assert np.abs(rec.gradient - grad).max() <= 1e-12 * np.abs(grad).max()
            assert np.abs(rec.hessian - hess).max() <= 1e-12 * np.abs(hess).max()
            assert rec.flagged == flagged


def test_recovery_geometry_built_once_per_mesh(pdisk, monkeypatch):
    # the patch geometry depends on the mesh alone: a second field reuses it
    calls = []
    patch_matrix = meshfem._patch_matrix

    def counted(mesh):
        calls.append(mesh)
        return patch_matrix(mesh)

    monkeypatch.setattr(meshfem, "_patch_matrix", counted)
    mesh = generate_mesh(pdisk, 0.2)
    x, y = mesh.nodes.T
    for coeffs in (x**2 - y, x * y + 3.0 * y**2):
        FemField(mesh, coeffs).recovered
    assert len(calls) == 1


def _cached_arrays(*owners):
    """The arrays the caches of `owners` (meshes, fields) hold, each once and
    a view as the array it views.  SuperLU factors, and the meshes and fields
    that cached values refer to, are not entered."""
    arrays, seen, stack = {}, set(), [owner._cache for owner in owners]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Mesh, FemField, spla.SuperLU)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            arrays[id(obj)] = obj
        elif sp.issparse(obj):
            stack += [obj.data, obj.indices, obj.indptr]
        elif isinstance(obj, dict):
            stack += obj.values()
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return list(arrays.values())


@pytest.fixture(scope="module")
def general_1_9_caches(pdisk):
    """A mode-2 disk mesh at h=0.1 after identity_reports(mesh, "general_1_9"),
    and the Dirichlet and Neumann fields that the identity paired."""
    fields = []
    evaluate = stability.eval_general_identity

    def recording(u, v):
        fields.extend((u, v))
        return evaluate(u, v)

    mesh = generate_mesh(pdisk, 0.1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "eval_general_identity", recording)
        stability.identity_reports(mesh, "general_1_9")
    return mesh, fields


def test_no_cached_volume_gradients(general_1_9_caches):
    # the (T,Q,6,2) shape gradients of the volume rule took 20.5 MB at h=0.025
    mesh, fields = general_1_9_caches
    assert len(fields) == 2
    shape = (len(mesh.triangles), len(mesh.element_ops()["w"]), 6, 2)
    assert all(a.shape != shape for a in _cached_arrays(mesh, *fields))


def test_mesh_cache_bytes_per_node(general_1_9_caches):
    # 546-549 B/node at h = 0.1, 0.05 and 0.025; about 1050 B/node with the
    # volume gradients and whole-mesh patch offsets cached
    mesh, _ = general_1_9_caches
    assert sum(a.nbytes for a in _cached_arrays(mesh)) <= 600 * mesh.n_nodes


def test_recover_fallback_two_elements():
    # two straight elements sharing an edge: every patch, extended or not,
    # holds both, too few for the linear fit, so recovery raises
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    mids = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0], [0.5, 1.0], [1.0, 0.5]])
    tris = np.array([[0, 1, 2, 4, 5, 6], [1, 3, 2, 7, 4, 8]])
    mesh = Mesh(None, np.vstack([verts, mids]), tris, 4, np.array([], dtype=int),
                np.array([]), np.empty((0, 3), dtype=int), 1.0, 1.0)
    x, y = mesh.nodes.T
    f = FemField(mesh, x**2 + 3 * x * y - y**2 + 2 * x)
    with pytest.raises(DegeneratePatch, match="node 0: its patch holds 2 elements"):
        _recover(f)
    assert _loop_recover(f)[2] == list(range(9))


def test_recover_orphan_node_raises(disk):
    # a node that no element uses has an empty patch, which growth keeps empty
    mesh = generate_mesh(disk, 0.5)
    orphan = Mesh(None, np.vstack([mesh.nodes, [[0.1, 0.2]]]), mesh.triangles,
                  mesh.n_vertices, mesh.boundary_idx, mesh.boundary_theta,
                  mesh.boundary_edges, mesh.h_target, mesh.h_max)
    f = FemField(orphan, np.append(mesh.nodes[:, 0] ** 2, 0.0))
    with pytest.raises(DegeneratePatch, match=f"node {mesh.n_nodes}: its patch holds 0 "):
        _recover(f)
    assert _recover(FemField(mesh, mesh.nodes[:, 0] ** 2)).flagged == []


def test_recover_ellipse_torsion_hessian(ellipse_dirichlet):
    H = ellipse_dirichlet.recovered.hessian
    nodes = ellipse_dirichlet.mesh.nodes
    interior = (nodes[:, 0] / 2) ** 2 + nodes[:, 1] ** 2 < 0.7
    err = np.abs(H[interior] - np.array([0.4, 1.6, 0.0]))
    assert err.max() < 1e-4


def test_eval_gradient_reads_only_the_patch_elements(pdisk):
    # the vertex maps of the patch alone give the gradient of the vertex
    # maps of the whole mesh, bit for bit
    mesh = generate_mesh(pdisk, 0.1)
    x, y = mesh.nodes.T
    f = FemField(mesh, x**2 - 3.0 * x * y + 0.5 * y**2)
    _, inv_all = mesh.vertex_jacobian()
    rng = np.random.default_rng(5)
    for n in rng.choice(np.flatnonzero(~mesh.boundary_mask), 20, replace=False):
        elements = mesh.node_elements[n].indices
        point = mesh.nodes[n] + 0.01 * mesh.h_max * rng.standard_normal(2)
        tris = mesh.triangles[elements]
        ref = np.einsum("edk,ek->ed", inv_all[elements], point - mesh.nodes[tris[:, 0]])
        e = int(np.argmax(np.minimum(ref.min(axis=1), 1.0 - ref.sum(axis=1))))
        dN = p2_dshape(ref[e])[0]
        J = np.einsum("nk,nd->dk", mesh.nodes[tris[e]], dN)
        want = np.linalg.solve(J, f.coeffs[tris[e]] @ dN)
        got = eval_gradient(f, point, elements)
        assert np.array_equal(got, want)
        exact = [2.0 * point[0] - 3.0 * point[1], -3.0 * point[0] + point[1]]
        assert np.abs(got - exact).max() <= 1e-12


# -- integration ------------------------------------------------------------------


def test_volume_of_disk(disk_mesh):
    ones = np.ones_like(disk_mesh.element_ops()["detJ"])
    assert abs(quad_integral(disk_mesh, ones) - np.pi) < 1e-7
    assert abs(lumped_mass(disk_mesh).sum() - np.pi) < 1e-7


def test_odd_integrand_vanishes(disk_mesh):
    # x is the P2 field of the isoparametric map, so M integrates it exactly
    x = disk_mesh.element_ops()["qp"][..., 0]
    assert abs(quad_integral(disk_mesh, x)) < 1e-12
    assert abs(lumped_mass(disk_mesh) @ disk_mesh.nodes[:, 0]) < 1e-12


# -- convergence -------------------------------------------------------------------


def test_convergence_torsion_disk(disk):
    hs = [0.1, 0.05, 0.025]
    l2, h1 = [], []
    for h in hs:
        f = solve_torsion_dirichlet(generate_mesh(disk, h))
        l2.append(l2_error(f, lambda p: 0.5 * ((p**2).sum(1) - 1.0)))
        h1.append(h1_seminorm_error(f, lambda p: p))
    # quadratic torsion fields are captured to geometry accuracy, so the
    # fitted orders sit at or above the nominal P2 rates
    assert fit_order(hs, l2) >= 2.7
    assert fit_order(hs, h1) >= 1.7
    assert l2[-1] < l2[0] and h1[-1] < h1[0]


def test_convergence_harmonic_cubic(disk):
    hs = [0.1, 0.05, 0.025]
    exact = lambda p: p[:, 0] ** 3 - 3 * p[:, 0] * p[:, 1] ** 2
    egrad = lambda p: np.stack(
        [3 * p[:, 0] ** 2 - 3 * p[:, 1] ** 2, -6 * p[:, 0] * p[:, 1]], axis=1
    )
    l2, h1 = [], []
    for h in hs:
        mesh = generate_mesh(disk, h)
        g = exact(mesh.nodes[mesh.boundary_idx])
        w = solve_harmonic_dirichlet(mesh, g)
        l2.append(l2_error(w, exact))
        h1.append(h1_seminorm_error(w, egrad))
    assert abs(fit_order(hs, l2) - 3.0) <= 0.3
    assert abs(fit_order(hs, h1) - 2.0) <= 0.3


def test_hessian_trace_converges(pdisk):
    sups = []
    for h in (0.1, 0.05):
        u = solve_torsion_dirichlet(generate_mesh(pdisk, h))
        H = u.recovered.hessian
        nodes = u.mesh.nodes
        r = np.linalg.norm(nodes, axis=1) / pdisk.radius(
            np.arctan2(nodes[:, 1], nodes[:, 0])
        )
        interior = r < 0.8
        sups.append(np.abs(H[interior, 0] + H[interior, 1] - 2.0).max())
    assert sups[1] < sups[0]
    assert sups[1] < 1e-2


def test_harmonic_strong_form_audit(pdisk_neumann):
    w = solve_harmonic_dirichlet(pdisk_neumann.mesh, pdisk_neumann.trace_values())
    H = w.recovered.hessian
    assert np.abs(H[:, 0] + H[:, 1]).mean() < 1e-2
    # u_N - w has zero trace and the interior rows of the Dirichlet torsion
    # solve, so on the mesh it is u_D up to roundoff
    u_d = solve_torsion_dirichlet(pdisk_neumann.mesh).coeffs
    gap = np.abs(pdisk_neumann.coeffs - w.coeffs - u_d).max()
    assert gap <= 1e-10 * np.abs(u_d).max()


def test_ball_rigidity_volume_integral(disk_dirichlet):
    # h = q - u is constant on the ball, so the weighted Hessian integral
    # sits at the recovery noise floor
    from serrinlab.identities import hess_h_sq_quad
    from serrinlab.meshfem import quad_integral

    mesh = disk_dirichlet.mesh
    hess_h_sq = hess_h_sq_quad(disk_dirichlet)
    ubar = float(disk_dirichlet.trace_values().max())
    V = quad_integral(mesh, (ubar - disk_dirichlet.values_at_quad()) * hess_h_sq)
    assert 0.0 <= V <= 1e-8


# -- mesh properties over random domains ------------------------------------------

def _mode_budget(modes, budget):
    """modes scaled so that sum k^2 (|a_k| + |b_k|) equals budget."""
    total = sum(k * k * (abs(a) + abs(b)) for k, a, b in modes) or 1.0
    return [(k, a * budget / total, b * budget / total) for k, a, b in modes]


_centres = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
# star domains with 1-2 modes up to the Fourier truncation bound (non-convex
# ones included), and ellipses of aspect up to 4:1, about random centres
patch_domain_specs = st.one_of(
    st.fixed_dictionaries({
        "rho0": st.floats(0.5, 2.0),
        "modes": st.builds(
            _mode_budget,
            st.lists(st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0),
                               st.floats(-1.0, 1.0)), min_size=1, max_size=2),
            st.floats(0.0, 0.95),
        ),
        "center": _centres,
    }),
    st.builds(
        lambda b, aspect, wide, center: {
            "ellipse": (b * aspect, b) if wide else (b, b * aspect), "center": center},
        st.floats(0.5, 2.0), st.floats(1.0, 4.0), st.booleans(), _centres,
    ),
)


@settings(max_examples=30)
@given(spec=patch_domain_specs, h_rel=st.floats(0.08, 0.9))
@example(spec={"rho0": 1.0, "modes": [(1, 0.6, 0.0)]}, h_rel=0.08)
@example(spec={"rho0": 1.0, "modes": [(2, 0.24, 0.0)]}, h_rel=0.08)
@example(spec={"ellipse": (4.0, 1.0), "center": (0.7, -0.3)}, h_rel=0.08)
def test_every_grown_patch_holds_three_elements(spec, h_rel):
    # the invariant that lets _patch_matrix raise instead of falling back
    dom = domain_or_reject(spec)
    mesh = generate_mesh(dom, h_rel * dom.rho0)
    assert np.diff(_patch_matrix(mesh).indptr).min() >= 3


@settings(max_examples=20)
@given(spec=domain_specs, h=st.floats(0.2, 0.3))
def test_mesh_properties(spec, h):
    dom = domain_or_reject(spec)
    mesh = generate_mesh(dom, h)
    ops = degree8_ops(mesh)
    assert (mesh.element_ops()["detJ"] > 0).all() and (ops["detJ"] > 0).all()
    # Euler characteristic of a disk: vertices - edges (one midnode each) + faces
    n_edges = mesh.n_nodes - mesh.n_vertices
    assert mesh.n_vertices - n_edges + len(mesh.triangles) == 1
    area = 0.5 * (ops["detJ"] @ ops["w"]).sum()
    assert abs(assemble_mass(mesh).sum() - area) <= 1e-12 * area
    ones = np.ones_like(mesh.element_ops()["detJ"])
    assert abs(quad_integral(mesh, ones) - area) <= 1e-12 * area
    _assert_matches_all_degree8(mesh)
    pts = mesh.nodes[mesh.boundary_idx]
    r = np.linalg.norm(pts - dom.center, axis=1)
    assert np.abs(r - dom.radius(mesh.boundary_theta)).max() <= 1e-13

    # recovery is exact for a quadratic where no patch reaches a curved element
    incid = mesh.node_elements
    near = incid.T @ (incid @ mesh.boundary_mask[mesh.triangles].any(axis=1))
    interior = ~(incid @ near)
    assert interior.any()
    c = np.asarray(dom.center)
    d = mesh.nodes - c
    f = FemField(mesh, 0.5 * d[:, 0] ** 2 + 2.0 * d[:, 0] * d[:, 1] - d[:, 1] ** 2)
    exact_grad = np.stack([d[:, 0] + 2.0 * d[:, 1], 2.0 * d[:, 0] - 2.0 * d[:, 1]], 1)
    rec = f.recovered
    assert np.abs(rec.hessian[interior] - [1.0, -2.0, 2.0]).max() < 1e-9
    assert np.abs(rec.gradient[interior] - exact_grad[interior]).max() < 1e-9
