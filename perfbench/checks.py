"""Correctness checks on the program's outputs.

Each check compares two results reached by independent paths, or tests a
property the protocol must have, and returns a list of problems (empty when it
passes). The checks take plain values so that a test can feed each one a
perturbed input and see it fail.
"""

from __future__ import annotations

# a vehicle-originated message carries a 42-byte pseudonym and a 16-byte MAC
OVERHEAD_BYTES_PER_MESSAGE = 42 + 16


def same_outcome(reference, outcome, what: str) -> list[str]:
    """Two runs of the same inputs (say traced and untraced) must agree."""
    if outcome != reference:
        return [f"{what}: outcome {outcome!r} differs from {reference!r}"]
    return []


def overhead_law(total_overhead_bytes: int, overhead_returns: int, what: str) -> list[str]:
    """The simulator's overhead total against 58 bytes per vehicle-originated
    message, counted from outside as successful returns of the functions that
    build those messages."""
    expected = OVERHEAD_BYTES_PER_MESSAGE * overhead_returns
    if total_overhead_bytes != expected:
        return [
            f"{what}: total_overhead_bytes {total_overhead_bytes} != 58 x "
            f"{overhead_returns} = {expected}"
        ]
    return []


def admissions_traced(
    joined: list, failed_confirms: list, illegal: set, legal: set, failed_full_auths: int, what: str
) -> list[str]:
    """``joined`` and ``failed_confirms`` hold the identities that the trust
    authority's trace recovered (None where the trace failed) for every
    successful join and every failed key confirmation."""
    problems = []
    for tid in joined:
        if tid not in legal:
            problems.append(f"{what}: joined vehicle traces to {tid!r}, not a legal vehicle")
    for tid in failed_confirms:
        if tid not in illegal:
            problems.append(f"{what}: failed confirmation traces to {tid!r}, not an illegal vehicle")
    if len(failed_confirms) != failed_full_auths:
        problems.append(
            f"{what}: {len(failed_confirms)} failed confirmations seen, "
            f"simulator counted {failed_full_auths}"
        )
    return problems


def group_key_oracle(p: int, q: int, g: int, gamma: int, lambdas) -> int:
    """g^(gamma * (1 + sum of lambdas)) folded into [1, q], computed without
    the package's group code."""
    x = pow(g, gamma * (1 + sum(lambdas)) % q, p)
    return x if x <= q else p - x


def group_keys(
    p: int, q: int, g: int, rsu_gk, gamma: int, lambdas, member_gks, what: str
) -> list[str]:
    """Every member holds the RSU's group key, and it has the closed form."""
    problems = []
    oracle = group_key_oracle(p, q, g, gamma, lambdas)
    if rsu_gk != oracle:
        problems.append(f"{what}: RSU group key differs from g^(gamma(1+sum lambda))")
    stale = sum(1 for gk in member_gks if gk != rsu_gk)
    if stale:
        problems.append(f"{what}: {stale} of {len(member_gks)} members hold another key")
    return problems


def broadcast_opened(sent: dict, ct: bytes, opened: tuple[bytes, bytes]) -> list[str]:
    """A broadcast opens to exactly the sender pseudonym and payload it was
    sealed with."""
    if ct not in sent:
        return ["a broadcast opened that was never sent"]
    if opened != sent[ct]:
        return ["a broadcast opened to another sender or payload"]
    return []


def rejections(got: dict, expected: dict, what: str) -> list[str]:
    """``got`` and ``expected`` map each receiver to the error class name its
    input raised, or None when it was accepted."""
    return [
        f"{what}: {who!r} gave {got.get(who)}, expected {want}"
        for who, want in expected.items()
        if got.get(who) != want
    ]


def equal_values(values: list, what: str) -> list[str]:
    """All parties computed the same value (say both RSUs' session keys)."""
    if len(values) < 2 or any(v != values[0] for v in values[1:]):
        return [f"{what}: values disagree"]
    return []
