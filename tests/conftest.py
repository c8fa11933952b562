import math

from hypothesis import strategies as st

from zsmagic import GroupSpec


def group_specs(max_order: int = 64, max_factors: int = 3, max_factor: int = 16):
    """Random small presentations (not necessarily canonical)."""
    return (
        st.lists(st.integers(2, max_factor), min_size=1, max_size=max_factors)
        .map(tuple)
        .filter(lambda fs: math.prod(fs) <= max_order)
        .map(GroupSpec)
    )


def elements_of(spec: GroupSpec):
    return st.integers(0, spec.order - 1).map(spec.element_at)


def images(tb, g):
    """(phi(g), psi(g)) of a triple bijection, read from its index tables."""
    i = tb.spec.index_of(g)
    return tb.spec.element_at(tb.phi[i]), tb.spec.element_at(tb.psi[i])


def elements(spec: GroupSpec, indices):
    """Element tuples of element indices, in the same nesting: a row of indices
    gives a tuple of elements, a list of rows a tuple of such tuples."""
    return tuple(spec.element_at(i) if isinstance(i, int) else elements(spec, i) for i in indices)


def indices(spec: GroupSpec, elems):
    """Element indices of element tuples, in the same nesting (the inverse of ``elements``)."""
    return tuple(
        spec.index_of(e) if isinstance(e, tuple) and all(isinstance(x, int) for x in e) else indices(spec, e)
        for e in elems
    )
