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
