"""Pinned physical constants and the unit conversions used at module boundaries.

All interfaces take the units stated in their signatures; conversions are
explicit, never implied.
"""

# Reduced Planck constant
HBAR_J_S = 1.054571817e-34
HBAR_UEV_PS = 0.6582119569  # same constant in ueV*ps

ELECTRON_MASS_KG = 9.1093837015e-31
EV_TO_J = 1.602176634e-19


def m_to_nm(length_m: float) -> float:
    return length_m * 1e9


def nm_to_m(length_nm: float) -> float:
    return length_nm * 1e-9
