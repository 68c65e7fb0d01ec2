"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 1-10 run through the same suite engine the ``verify`` subcommand
uses (a single shared run, then one test per criterion so each prints its
own pass/fail line).  Criterion 11 exercises the CLI twice and compares the
rendered bytes.
"""

import hashlib
import json

import pytest

from etarho.cli import run

CRITERIA = {
    1: "circle quadrature vs closed form i/(pi n), n in 1..32, rel err < 1e-8",
    2: "finite-sum exactness: eta over {1,2,3} = 11/6 * i/pi",
    3: "divergence of the naturals + partial-sum witness over 10^4 terms",
    4: "fourier_eta == pair_phi(theta, .) and theta-rank = floor(n/2), n <= 24",
    5: "rho2 identity against the -triv + (1/n) regular twist, n <= 12",
    6: "lens tables: rho2(L(3;1,1)) = 2/9 and the parity law, n in {3,5,7,9}",
    7: "span ranks match brute force; nonvanishing search lands for every kappa",
    8: "induction examples and functoriality hold exactly",
    9: "integer-character lens twists lie in Z[1/n], n in {3,5,7,9}",
    10: "group zoo: class of 1 in Q_{>0}, lamp degree ~ 1, Britton termination",
}


@pytest.fixture(scope="session")
def verify_output():
    report, rendered, code = run(["verify"])
    return json.loads(rendered), rendered, code


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(verify_output, criterion):
    payload, _, _ = verify_output
    suite = next(s for s in payload["results"]["suites"]
                 if s["criterion"] == criterion)
    status = "PASS" if suite["passed"] else "FAIL"
    print(f"[{status}] criterion {criterion}: {CRITERIA[criterion]}")
    assert suite["passed"], suite["details"]


def test_criterion_11_determinism(verify_output):
    payload, first_bytes, code = verify_output
    assert code == 0
    _, second_bytes, _ = run(["verify"])
    identical = first_bytes == second_bytes
    status = "PASS" if identical else "FAIL"
    print(f"[{status}] criterion 11: verify JSON byte-identical across two runs")
    assert identical


# sha256 of `etarho verify` stdout.  The digest depends on the floats that
# mpmath 1.3 prints; any deliberate change of the output updates it.
VERIFY_STDOUT_SHA256 = "98157098350627ac686d7c96a88f40e5ffca42493bcec162795878bd3e459bca"


def test_verify_stdout_digest(verify_output):
    _, rendered, _ = verify_output
    assert hashlib.sha256((rendered + "\n").encode()).hexdigest() == VERIFY_STDOUT_SHA256
