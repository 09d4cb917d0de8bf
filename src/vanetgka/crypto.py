"""Algebraic and symmetric primitives.

The multiplicative group G is the signed-quadratic-residue group modulo a
safe prime p = 2q + 1: representatives are folded into [1, q] by
f(x) = x if x <= q else p - x, which picks from each class {x, p-x} the
one member that lies in [1, q].  Exponents live in Z_q.

The bilinear map is a toy instantiation over G1 = (Z_q, +) with generator
P = 1 and e(a, b) = gT^(a*b mod q).  It satisfies bilinearity,
nondegeneracy and computability, which is exactly what the protocol layers
need, and it makes desk-scale exhaustive testing possible.  It is
DELIBERATELY INSECURE (discrete logs in G1 are trivial); a production
deployment would swap in a real pairing behind the same ``SystemParams``
surface.

Which form an exponentiation takes depends on its base alone:

  * the generator g: a table with one row of 256 powers per byte of the
    exponent (``_fixed_base_table``), 555 kB at 256 bits, shared by every
    ``SystemParams`` of the group in the process; an exponentiation is 32
    multiplications;
  * a registered public key (``pk_ta_g`` or an RSU's key): its powers from
    ``SystemParams.key_powers``, a bounded memo that each parameters object,
    and so each trust authority, keeps for itself;
  * a group member's share base: its powers, kept by the RSU-side member
    record that owns the base (``groupkey.MemberRecord``);
  * any other base, fresh from a message or used once (an ephemeral KEM key,
    a ring commit, a blinded share): ``pow``, since a table costs about one
    exponentiation to build.

The powers of a base a are a^(16^j), one per 4-bit digit of q
(``SystemParams.base_powers``), about 4.4 kB at 256 bits, evaluated by Yao's
bucket method in at most 94 multiplications.

The entries used depend on the secret exponent, so ``g_exp`` is not
constant-time; that is acceptable in this toy, and a real backend would
bring its own fixed-base method.

Symmetric primitives: a counter-mode keystream cipher built from SHA-256,
HMAC-SHA-256 truncated to 16 bytes, and an HMAC-based KDF producing
32-byte keys.

Both HMAC users start from the key's inner and outer SHA-256 states, its two
pad blocks already hashed (RFC 2104, section 4), which halves the cost of a
short MAC. The states are kept in a memo keyed by the key bytes and bounded
at 256 keys, the bound of ``wire.Channel.derive``, whose channels make nearly
every MAC: group and channel keys are reused across many messages. The memo
holds only bytes and hash states, so it keeps no message or parameters
object alive.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random
import weakref
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

from .errors import DecryptFail

# Representatives of G are ints in [1, q]; G1 elements and scalars are
# ints in [0, q-1].  Aliases for signature readability only.
GElem = int
G1Elem = int
Scalar = int

SYM_NONCE_LEN = 16
MAC_LEN = 16
PSEUDONYM_LEN = 42


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, 40 rounds with fixed-seed witnesses (deterministic across runs)."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(0x5AFE)
    for _ in range(40):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# System parameters and group operations
# ---------------------------------------------------------------------------


def json_int(value: object, what: str) -> int:
    """A JSON integer, or a string of decimal digits, as an int; any other
    value is a ValueError naming ``what``."""
    if type(value) is int or (type(value) is str and value.isdecimal()):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Public parameters: the group, the pairing target, and TA public keys.

    ``pk_ta_g`` is the TA public key in G (g^psi) used for pseudonym masks
    and signature checks; ``pk_ta_g1`` is the TA key as a G1 element
    (psi * P) used inside pairings.  Both are None until a trust authority
    publishes them.
    """

    p: int
    q: int
    g: GElem
    gt: GElem
    pk_ta_g: GElem | None = None
    pk_ta_g1: G1Elem | None = None

    @cached_property
    def element_width(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def validate(self) -> None:
        if not is_probable_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if not is_probable_prime(self.q):
            raise ValueError(f"q = {self.q} is not prime")
        if self.p != 2 * self.q + 1:
            raise ValueError("p != 2q + 1")
        for name, elem in (("g", self.g), ("gt", self.gt)):
            if not 1 < elem <= self.q:
                raise ValueError(f"{name} = {elem} outside (1, q]")
            # order-q check uses the raw exponent q on purpose: the group
            # API below reduces exponents mod q, which would hide it
            if self.fold(pow(elem, self.q, self.p)) != 1:
                raise ValueError(f"{name} does not have order q")

    def with_ta_keys(self, sk_ta: Scalar) -> "SystemParams":
        """These parameters with the TA public keys of ``sk_ta``."""
        return replace(self, pk_ta_g=self.g_exp(self.g, sk_ta), pk_ta_g1=self.g1_mul(sk_ta, 1))

    # The two memos below live on the parameters object, so each new trust
    # authority starts with empty ones. They hold it by a weak reference: a
    # strong one would make a cycle, and each dropped trust authority's
    # memos would stay in memory until the next full garbage collection.

    @cached_property
    def _schnorr_memo(self):
        """``schnorr_verify`` under these parameters, memoized for the last 64
        distinct (pk, message, signature) inputs."""
        return lru_cache(maxsize=64)(partial(_schnorr_check, weakref.proxy(self)))

    @cached_property
    def key_powers(self):
        """``base_powers`` of a registered public key, memoized for the last
        256 distinct keys (about 1.1 MB at 256 bits).

        A key agreement walks the whole RSU roster, so with more than 256
        registered keys a walk misses on every key, and each miss (a table
        build, then its use) costs a little more than one ``pow``."""
        return lru_cache(maxsize=256)(partial(SystemParams.base_powers, weakref.proxy(self)))

    # -- group G ------------------------------------------------------------

    def fold(self, x: int) -> GElem:
        """Canonical representative of {x, p-x} in [1, q]."""
        if not 1 <= x <= self.p - 1:
            raise ValueError(f"fold: {x} outside [1, p-1]")
        return x if x <= self.q else self.p - x

    def check_group_elems(self, *elems: int) -> None:
        """DecryptFail unless every received value is a representative of G,
        in [1, q], before it enters the group arithmetic or a key store."""
        for e in elems:
            if not 1 <= e <= self.q:
                raise DecryptFail("element outside the group")

    def g_exp(self, a: GElem, b: Scalar, powers: tuple[int, ...] | None = None) -> GElem:
        """a^b in G; exponents reduce mod q since the group has order q.

        Given ``powers``, which must be ``base_powers(a)``, a^b is evaluated
        from them by Yao's bucket method. Otherwise powers of the generator g
        are products of one entry per byte of the exponent from the shared
        fixed-base table, and other bases use ``pow``."""
        b %= self.q
        p = self.p
        if powers is not None:
            # bucket d collects the a^(16^j) of every digit d of b; then
            # a^b = prod_d bucket_d^d = prod_{d=15..1} prod_{e>=d} bucket_e
            buckets = [1] * 16
            for power in powers:
                digit = b & 15
                b >>= 4
                if digit:
                    buckets[digit] = buckets[digit] * power % p
            out = acc = 1
            for bucket in reversed(buckets[1:]):
                acc = acc * bucket % p
                out = out * acc % p
            return self.fold(out)
        if a != self.g:
            return self.fold(pow(a, b, p))
        rows = _fixed_base_table(a, p)
        out = 1
        for row, byte in zip(rows, b.to_bytes(len(rows), "little")):
            out = out * row[byte] % p
        return self.fold(out)

    def base_powers(self, a: GElem) -> tuple[int, ...]:
        """a^(16^j) mod p for j = 0, 1, ..., one per 4-bit digit of q, for
        ``g_exp(a, b, powers)`` (Yao, SIAM J. Computing 1976): building them
        costs about one exponentiation."""
        p = self.p
        out = [a]
        for _ in range((self.q.bit_length() + 3) // 4 - 1):
            a = pow(a, 16, p)
            out.append(a)
        return tuple(out)

    def g_mul(self, a: GElem, b: GElem) -> GElem:
        return self.fold(a * b % self.p)

    def g_inv(self, a: GElem) -> GElem:
        return self.g_exp(a, self.q - 1)

    def g_prod(self, elems) -> GElem:
        out = 1
        for e in elems:
            out = out * e % self.p
        return self.fold(out)

    # -- toy pairing over G1 = (Z_q, +), P = 1 --------------------------------

    def pair(self, a: G1Elem, b: G1Elem) -> GElem:
        return self.g_exp(self.gt, a * b % self.q)

    def g1_mul(self, k: Scalar, a: G1Elem) -> G1Elem:
        """Scalar multiplication k*a in G1."""
        return k * a % self.q

    # -- hashing into the algebra --------------------------------------------

    def hash_to_g1(self, data: bytes) -> G1Elem:
        return _expand_to_int(b"h2g1", data, self.q) % (self.q - 1) + 1

    def hash_to_scalar(self, data: bytes) -> Scalar:
        return _expand_to_int(b"h2s", data, self.q) % (self.q - 1) + 1

    def mask_hash(self, e: GElem) -> bytes:
        return _expand(b"mask", self.encode_elem(e), PSEUDONYM_LEN)

    # -- serialization ---------------------------------------------------------

    def encode_elem(self, x: int) -> bytes:
        """Fixed-width big-endian encoding shared by G, G1 and scalar values."""
        return x.to_bytes(self.element_width, "big")

    @property
    def hash_config(self) -> dict[str, str]:
        """Identifiers of the hash instantiations behind H1, h, the
        pseudonym mask and the KDF (fixed in this implementation)."""
        return {
            "h1": "sha256-ctr",
            "h": "sha256-ctr",
            "mask": "sha256-ctr",
            "kdf": "hmac-sha256",
        }

    def to_json_dict(self) -> dict:
        d = {
            "p": str(self.p),
            "q": str(self.q),
            "g": str(self.g),
            "gt": str(self.gt),
            "element_width": self.element_width,
            "hash_config": self.hash_config,
        }
        if self.pk_ta_g is not None:
            d["pk_ta_g"] = str(self.pk_ta_g)
            d["pk_ta_g1"] = str(self.pk_ta_g1)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SystemParams":
        params = cls(
            p=json_int(d["p"], "params p"),
            q=json_int(d["q"], "params q"),
            g=json_int(d["g"], "params g"),
            gt=json_int(d["gt"], "params gt"),
            pk_ta_g=json_int(d["pk_ta_g"], "params pk_ta_g") if "pk_ta_g" in d else None,
            pk_ta_g1=json_int(d["pk_ta_g1"], "params pk_ta_g1") if "pk_ta_g1" in d else None,
        )
        if "hash_config" in d and d["hash_config"] != params.hash_config:
            raise ValueError("unsupported hash configuration")
        params.validate()
        return params


# bounded: room for the three profiles and one group loaded from a file
@lru_cache(maxsize=4)
def _fixed_base_table(base: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds base^(j * 256^i) mod p for j in 0..255, one row per byte
    of q = (p - 1) / 2 (Brickell, Gordon, McCurley and Wilson, EUROCRYPT
    1992). One table per (base, p) serves every ``SystemParams`` of that
    group in the process: 555 kB for the 256-bit profile."""
    rows = []
    for _ in range(((p >> 1).bit_length() + 7) // 8):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p
    return tuple(rows)


# Parameter scales.  "test" is small enough for exhaustive checks, "small64"
# keeps runs fast while making random collisions negligible, "default" is the
# realistic size.  The larger primes are fixed constants so startup never
# pays safe-prime generation.
PROFILES: dict[str, SystemParams] = {
    "test": SystemParams(p=23, q=11, g=2, gt=2),
    "small64": SystemParams(
        p=12118870745514474443, q=6059435372757237221, g=4, gt=4
    ),
    "default": SystemParams(
        p=230198062262824088991305066793960020683173156635716654584224128060006756621007,
        q=115099031131412044495652533396980010341586578317858327292112064030003378310503,
        g=4,
        gt=4,
    ),
}


def get_profile(name: str) -> SystemParams:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown parameter profile {name!r}") from None


# ---------------------------------------------------------------------------
# Scalar sampling
# ---------------------------------------------------------------------------


def rand_zq_star(rng: random.Random, q: int) -> Scalar:
    """Uniform scalar in [1, q-1]."""
    return rng.randrange(1, q)


# ---------------------------------------------------------------------------
# Hash expansion
# ---------------------------------------------------------------------------


def _ctr_sha256(head: bytes, n: int, tail: bytes = b"") -> bytes:
    """n bytes of counter-mode SHA-256: blocks ``head || ctr (8 bytes) || tail``.

    ``head`` is hashed once, and each block continues a copy of that state."""
    state = hashlib.sha256(head)
    blocks = []
    for ctr in range((n + 31) // 32):
        block = state.copy()
        block.update(ctr.to_bytes(8, "big") + tail)
        blocks.append(block.digest())
    return b"".join(blocks)[:n]


def _expand(domain: bytes, data: bytes, n: int) -> bytes:
    """n pseudorandom bytes with domain separation."""
    return _ctr_sha256(len(domain).to_bytes(1, "big") + domain, n, data)


def _expand_to_int(domain: bytes, data: bytes, q: int) -> int:
    # 16 extra bytes make the mod-(q-1) bias negligible
    width = (q.bit_length() + 7) // 8 + 16
    return int.from_bytes(_expand(domain, data, width), "big")


# ---------------------------------------------------------------------------
# Symmetric layer
# ---------------------------------------------------------------------------


def kdf(value: int, context: bytes) -> bytes:
    """32-byte key from a group element or scalar; contexts separate uses."""
    n = max(1, (value.bit_length() + 7) // 8)
    key = hashlib.sha256(b"kdf:" + context).digest()
    return _hmac_sha256(key, value.to_bytes(n, "big"))


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """a XOR b for byte strings of equal length."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )


def sym_encrypt(key: bytes, plaintext: bytes, rng: random.Random) -> bytes:
    """nonce || plaintext XOR keystream.  Unauthenticated: pair with hmac_tag."""
    nonce = rng.randbytes(SYM_NONCE_LEN)
    return nonce + xor_bytes(plaintext, _ctr_sha256(key + nonce, len(plaintext)))


def sym_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    if len(ciphertext) < SYM_NONCE_LEN:
        raise DecryptFail("ciphertext shorter than nonce")
    nonce, body = ciphertext[:SYM_NONCE_LEN], ciphertext[SYM_NONCE_LEN:]
    return xor_bytes(body, _ctr_sha256(key + nonce, len(body)))


def hmac_tag(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 truncated to the 16-byte wire width."""
    return _hmac_sha256(key, data)[:MAC_LEN]


_SHA256_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@lru_cache(maxsize=256)
def _hmac_states(key: bytes):
    """SHA-256 states after K xor ipad and K xor opad, where K is ``key``
    (hashed first if longer than a block) zero-padded to the 64-byte block:
    HMAC's two pad blocks, hashed once per key (RFC 2104, section 4)."""
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\0")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 of ``data`` under ``key``, continuing copies of the key's
    kept states; the kept states themselves are never updated."""
    inner, outer = _hmac_states(key)
    inner = inner.copy()
    inner.update(data)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def macs_equal(a: bytes, b: bytes) -> bool:
    return _hmac.compare_digest(a, b)


# ---------------------------------------------------------------------------
# Schnorr signatures in G
# ---------------------------------------------------------------------------


def schnorr_sign(
    params: SystemParams, sk: Scalar, message: bytes, rng: random.Random | None = None
) -> tuple[Scalar, Scalar]:
    """Sign with commit R = g^k, challenge c = h(R || m), response k - c*sk.

    Without an rng the nonce is derandomized from the key and message,
    which never reuses k across distinct messages.
    """
    if rng is None:
        k = params.hash_to_scalar(b"signonce|" + params.encode_elem(sk) + message)
    else:
        k = rand_zq_star(rng, params.q)
    commit = params.g_exp(params.g, k)
    c = params.hash_to_scalar(params.encode_elem(commit) + message)
    s = (k - c * sk) % params.q
    return c, s


def schnorr_verify(
    params: SystemParams, pk: GElem, message: bytes, sig: tuple[Scalar, Scalar]
) -> bool:
    """Whether ``sig`` signs ``message`` under ``pk``.

    A pure function of public values, memoized per parameter set: in a key
    agreement every member checks the same commits and responses, and every
    vehicle checks the same beacon signatures."""
    return params._schnorr_memo(pk, message, tuple(sig))


def _schnorr_check(
    params: SystemParams, pk: GElem, message: bytes, sig: tuple[Scalar, Scalar]
) -> bool:
    c, s = sig
    if not (0 <= c < params.q and 0 <= s < params.q):
        return False
    commit = params.g_mul(params.g_exp(params.g, s), params.g_exp(pk, c, params.key_powers(pk)))
    return params.hash_to_scalar(params.encode_elem(commit) + message) == c
