"""hdw-forge: symbolic derivation, structural verification, and numerical
integration of first-order Hamiltonian field equations on coordinate charts."""

__version__ = "0.1.0"

from .coords import BundleChart, CoordId
from .forms import (CoordForm, CoordMultiVector, build_omega, build_theta,
                    extended_alpha, exterior_derivative, hamilton_cartan,
                    interior_product, volume_form, wedge)
from .hdw import (GaugeChoice, HamiltonianModel, HdwField,
                  connection_equation_check, curvature, derive_extended,
                  derive_restricted, dof_count, mu_vertical_pairing,
                  residual_extended, residual_restricted, tangency_check,
                  transversality)
from .legendre import (LagrangianModel, LegendreResult, euler_lagrange,
                       hamiltonian_from_lagrangian, hdw_momentum_elimination,
                       legendre_maps, rank_diagnostics)
from .solver import (SectionGrid, SolveReport, conservation_diagnostics,
                     discrete_field_energy, max_discrepancy, project_extended,
                     solve_field_1p1, solve_ode)
from .symbolic import (Expr, differentiate, evaluate, fd_check,
                       is_structurally_zero, simplify)

__all__ = [
    "BundleChart", "CoordForm", "CoordId", "CoordMultiVector", "Expr",
    "GaugeChoice", "HamiltonianModel", "HdwField", "LagrangianModel",
    "LegendreResult", "SectionGrid", "SolveReport", "build_omega",
    "build_theta", "connection_equation_check", "conservation_diagnostics",
    "curvature", "derive_extended", "derive_restricted", "differentiate",
    "discrete_field_energy", "dof_count", "euler_lagrange", "evaluate",
    "extended_alpha", "exterior_derivative", "fd_check", "hamilton_cartan",
    "hamiltonian_from_lagrangian", "hdw_momentum_elimination",
    "interior_product", "is_structurally_zero", "legendre_maps",
    "max_discrepancy", "mu_vertical_pairing", "project_extended",
    "rank_diagnostics", "residual_extended", "residual_restricted",
    "simplify", "solve_field_1p1", "solve_ode", "tangency_check",
    "transversality", "volume_form", "wedge",
]
