"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection
harness behind ``tests/robustness/`` and the CI robustness smoke job.
It lives in the package (not under ``tests/``) so the multistart
supervisor can ship fault specs into pool workers and the smoke
scripts can inject crashes from the command line.  The service-level
injectors (:func:`journal_write_crash`, :func:`slow_client_request`)
back ``tests/service/`` and the service smoke job.
"""

from repro.testing.faults import (
    FaultSpec,
    FaultyObjective,
    InjectedFault,
    journal_write_crash,
    poison_approx_mass,
    slow_client_request,
)

__all__ = [
    "FaultSpec",
    "FaultyObjective",
    "InjectedFault",
    "journal_write_crash",
    "poison_approx_mass",
    "slow_client_request",
]
