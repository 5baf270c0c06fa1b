"""Magic-intensity dipole trap toolkit: differential-light-shift model with
hyperpolarizability, thermally averaged Ramsey dephasing, coefficient fits,
and transfer coherence budgets for optically trapped clock qubits.

Each public name is imported from its submodule, e.g.
``from magictrap.ramsey import t2_star``."""

__version__ = "0.1.0"
