"""The term-by-term exact pairings that ``etarho.chars.fourier_eta`` and
``pair_phi`` replaced with one ``etarho.cyclotomic._weighted_dot``, kept as
test oracles: each term is a product of cyclotomic values reduced mod Phi,
and the terms are added left to right."""


def fourier_eta(rep, rho):
    """sum over classes of (chi(class) * |class|) * rho(class)."""
    group = rep.group
    total = None
    for ci in range(group.n_classes()):
        term = rep.character(ci) * group.class_size(ci) * rho(ci)
        total = term if total is None else total + term
    return total


def pair_phi(f, rho):
    """sum over classes of f(class) * rho(class)."""
    total = None
    for ci in range(f.group.n_classes()):
        term = f(ci) * rho(ci)
        total = term if total is None else total + term
    return total
