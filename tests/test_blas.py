"""One BLAS for the package: every dense product goes through
bloch.contract, on scipy's ?gemm (see the bloch module docstring), and no
numpy.linalg routine runs on numpy's own BLAS outside ALLOWED."""

import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blochhomog
from blochhomog import (Inclusion, MediumSpec, PlaneWaveBasis, bloch_pencil,
                        disk_2d, exact_bloch_solution, fourier_table,
                        two_phase_1d)
from blochhomog.bloch import contract
from blochhomog.source import FrequencySpec

PACKAGE = pathlib.Path(blochhomog.__file__).parent
# numpy functions and array methods that run numpy's own BLAS
NUMPY_PRODUCTS = {"dot", "vdot", "tensordot", "matmul", "inner", "multi_dot"}
# numpy calls that run numpy.linalg (np.polyfit: its lstsq)
NUMPY_LINALG = re.compile(r"(np|numpy)\.(linalg\.|polynomial\.|polyfit$)")
# (module, function) -> reason, for a product kept on numpy's BLAS on purpose
ALLOWED = {
    ("fields", "wavenumber_quadrature"):
        "leggauss's Gauss-Legendre nodes, once per quadrature: scipy's "
        "roots_legendre differs by an ulp, which moves the branch field by "
        "6e-10 of its max and the oracle errors by up to 7e-12 relative",
}


def _products(source: str) -> list[tuple[str, str]]:
    """(enclosing function, what) for each dense product that does not go
    through contract: a matrix @ or @=, a call of a NUMPY_PRODUCTS name, and
    an einsum given `optimize` (which may hand it to tensordot); and for
    each call of a numpy.linalg or numpy.polynomial routine or np.polyfit
    (NUMPY_LINALG).  Comments, docstrings and decorators are no
    expressions, and an exception class is no call, so they never match."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            found.append((where, "@"))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in NUMPY_PRODUCTS or (
                    name == "einsum"
                    and any(kw.arg == "optimize" for kw in node.keywords)):
                found.append((where, name))
            elif NUMPY_LINALG.match(ast.unparse(node.func)):
                found.append((where, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_scanner_finds_every_kind_of_product():
    source = '''
@decorator
def f(a, b):
    """a @ b and np.dot(a, b) in a docstring"""
    # np.tensordot(a, b, 1) in a comment
    c = a @ b
    c @= b
    try:
        c += np.linalg.norm(a) + numpy.polynomial.legendre.leggauss(4)[0]
    except np.linalg.LinAlgError:
        c += np.polyfit(a, b, 1) + np.polyval(a, b) + np.linalg.multi_dot(a)
    return (np.tensordot(a, b, 1) + a.dot(b) + vdot(a, b)
            + np.einsum("ij,jk", a, b, optimize=True) + np.einsum("ii", a))
'''
    assert _products(source) == [
        ("f", "@"), ("f", "@"), ("f", "np.linalg.norm"),
        ("f", "numpy.polynomial.legendre.leggauss"), ("f", "np.polyfit"),
        ("f", "multi_dot"), ("f", "tensordot"), ("f", "dot"), ("f", "vdot"),
        ("f", "einsum")]


def test_every_dense_product_goes_through_contract():
    found = {(path.stem, where, what)
             for path in sorted(PACKAGE.glob("*.py"))
             for where, what in _products(path.read_text())}
    assert {f for f in found if f[:2] not in ALLOWED} == set()
    assert set(ALLOWED) <= {f[:2] for f in found}, "stale ALLOWED entry"


# ---------------------------------------------------------------------------
# contract against numpy
# ---------------------------------------------------------------------------

def _operand(rng, shape, is_complex, layout):
    """A random array of `shape`: C-contiguous, a transpose, a moveaxis view
    or a strided slice."""
    def draw(s):
        x = rng.standard_normal(s)
        return x + 1j * rng.standard_normal(s) if is_complex else x
    if layout == "T":
        return draw(shape[::-1]).T
    if layout == "moveaxis":
        return np.moveaxis(draw(shape[1:] + shape[:1]), -1, 0)
    if layout == "strided":
        return draw(shape[:-1] + (2 * shape[-1],))[..., ::2]
    return draw(shape)


_LAYOUTS = st.sampled_from(["C", "T", "moveaxis", "strided"])


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 7), lead=st.lists(st.integers(0, 5), max_size=2),
       tail=st.lists(st.integers(0, 5), max_size=2),
       complex_a=st.booleans(), complex_b=st.booleans(),
       layout_a=_LAYOUTS, layout_b=_LAYOUTS, seed=st.integers(0, 2 ** 32 - 1))
def test_contract_equals_numpy(k, lead, tail, complex_a, complex_b,
                               layout_a, layout_b, seed):
    """contract(a, b) = np.tensordot(a, b, 1) for real, complex and mixed
    operands, 1-D to 3-D b, non-contiguous views and zero-length axes, to
    1e-13 of the sum of |terms| of each entry."""
    rng = np.random.default_rng(seed)
    a = _operand(rng, tuple(lead) + (k,), complex_a, layout_a)
    b = _operand(rng, (k,) + tuple(tail), complex_b, layout_b)
    got = np.asarray(contract(a, b))
    ref = np.tensordot(a, b, 1)
    assert got.shape == ref.shape
    assert np.iscomplexobj(got) == (complex_a or complex_b)
    bound = 1e-13 * np.tensordot(np.abs(a), np.abs(b), 1)
    assert np.all(np.abs(got - ref) <= bound)


def test_exact_solution_with_every_node_dropped(gamma1d_32, source1d, quad1d):
    """eps |khat| > pi at every node: no solve, and the synthesis contracts
    a zero-length node axis to a zero field."""
    eps = 20.0
    assert np.all(np.abs(eps * quad1d.nodes) > np.pi)
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=-eps ** 2)
    u = exact_bloch_solution(gamma1d_32, freq, source1d, quad1d,
                             (np.linspace(-1.0, 1.0, 9),))
    assert u.meta["solves"] == 0
    assert u.meta["dropped_nodes"] == len(quad1d.nodes)
    assert u.meta["dropped_mass"] == 1.0
    assert np.array_equal(u.values, np.zeros(9))


# ---------------------------------------------------------------------------
# stiffness without BLAS
# ---------------------------------------------------------------------------

_OFF_CENTRE = MediumSpec(dimension=2, background_G=1.0, background_rho=1.0,
                         inclusions=(Inclusion((0.1, -0.2), 0.25, 8.0, 3.0),))


@pytest.mark.parametrize("spec, cutoff", [(two_phase_1d(), 256),
                                          (disk_2d(), 10), (_OFF_CENTRE, 6)])
def test_stiffness_equals_gram_product(spec, cutoff):
    """stiffness(k) = E o (kpg kpg^T), kpg = 2 pi j + k, to 1e-15 relative,
    on a real 1D pencil above OpenBLAS's threading threshold (M = 513), a
    real 2D one (M = 441) and a complex 2D one."""
    basis = PlaneWaveBasis(spec.dimension, cutoff)
    pencil = bloch_pencil(fourier_table(spec, 2 * cutoff), basis)
    rng = np.random.default_rng(cutoff)
    for k in rng.uniform(-np.pi, np.pi, (4, spec.dimension)):
        kpg = pencil.tp + k
        ref = pencil.E * (kpg @ kpg.T)
        S = pencil.stiffness(k)
        assert S.dtype == ref.dtype
        assert np.linalg.norm(S - ref) <= 1e-15 * np.linalg.norm(ref)
