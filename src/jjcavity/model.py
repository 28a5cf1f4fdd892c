"""Core data types for block-structured linear quantum system models.

The operator vector is always stacked as [a_1, ..., a_n, a_1*, ..., a_n*]
(all annihilators first, then all creators).  All matrices live over that
ordering.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

DEFAULT_VALIDATION_TOL = 1e-9


def j_matrix(n: int) -> np.ndarray:
    """diag(I_n, -I_n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(complex)


def sigma_matrix(n: int) -> np.ndarray:
    """Block swap [[0, I_n], [I_n, 0]]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sig = np.zeros((2 * n, 2 * n), dtype=complex)
    sig[:n, n:] = np.eye(n)
    sig[n:, :n] = np.eye(n)
    return sig


@dataclass(frozen=True)
class SystemModel:
    """One analyzable linear quantum system with a sector-bounded perturbation.

    M      : 2n x 2n Hermitian matrix of the nominal quadratic Hamiltonian,
             blocks [[M1, M2], [M2#, M1#]] with M1 Hermitian, M2 symmetric.
    N      : 2n x 2n coupling matrix, blocks [[N1, N2], [N2#, N1#]].
    Etilde : 1 x 2n row defining the scalar perturbation channel.
    gamma  : sector constant (dimensionless in the hbar-normalized units).
    delta1, delta2 : sector slack constants.
    """

    n_modes: int
    M: np.ndarray
    N: np.ndarray
    Etilde: np.ndarray
    gamma: float
    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "M", np.asarray(self.M, dtype=complex))
        object.__setattr__(self, "N", np.asarray(self.N, dtype=complex))
        et = np.asarray(self.Etilde, dtype=complex).reshape(1, -1)
        object.__setattr__(self, "Etilde", et)
        n2 = 2 * self.n_modes
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.M.shape != (n2, n2):
            raise ValueError(f"M must be {n2}x{n2}, got {self.M.shape}")
        if self.N.shape != (n2, n2):
            raise ValueError(f"N must be {n2}x{n2}, got {self.N.shape}")
        if self.Etilde.shape != (1, n2):
            raise ValueError(f"Etilde must be 1x{n2}, got {self.Etilde.shape}")
        for name in ("gamma", "delta1", "delta2"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=_encode_complex)

    @classmethod
    def from_json(cls, text: str) -> "SystemModel":
        """Parse `to_json` output; malformed input raises ValueError naming
        the missing key or the bad entry."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"model JSON must be an object, got {type(d).__name__}")
        for k in ("n_modes", "M", "N", "Etilde", "gamma"):
            if k not in d:
                raise ValueError(f"model JSON lacks key {k!r}")
        if not isinstance(d["n_modes"], int) or isinstance(d["n_modes"], bool):
            raise ValueError(f"n_modes must be an integer, got {d['n_modes']!r}")
        return cls(
            n_modes=d["n_modes"],
            M=_decode_complex("M", d["M"]),
            N=_decode_complex("N", d["N"]),
            Etilde=_decode_complex("Etilde", d["Etilde"]),
            gamma=d["gamma"],
            delta1=d.get("delta1", 0.0),
            delta2=d.get("delta2", 0.0),
        )


def _encode_complex(obj) -> list:
    """`json.dumps` fallback for record fields: a complex number as
    [re, im], a complex array as row-major nested lists of those."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _decode_pairs(name: str, pairs) -> np.ndarray:
    """A JSON list of [re, im] pairs of numbers as a complex vector; a
    ValueError names the first entry that is not such a pair."""
    if not isinstance(pairs, list):
        raise ValueError(f"{name} must be a list of [re, im] pairs, got {pairs!r}")
    for k, p in enumerate(pairs):
        if not (isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))):
            raise ValueError(f"{name}[{k}] must be a [re, im] pair of numbers, got {p!r}")
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def _decode_complex(name: str, rows) -> np.ndarray:
    if not isinstance(rows, list):
        raise ValueError(f"{name} must be a list of rows, got {rows!r}")
    return np.array([_decode_pairs(f"{name}[{i}]", row) for i, row in enumerate(rows)], dtype=complex)


def _report_worst(size: np.ndarray, tol_abs: float, message: str, out: list[str],
                  row0: int = 0, **labels) -> None:
    """Append `message` to `out` for the largest entry of the matrix `size`
    of magnitudes if that exceeds tol_abs.  The message's {i}, {j} and {v}
    become the entry's row (offset by row0), column and size; `labels` fill
    the other fields."""
    i, j = divmod(int(size.argmax()), size.shape[1])
    if size[i, j] > tol_abs:
        out.append(message.format(i=row0 + i, j=j, v=size[i, j], **labels))


def _finite(name: str, A: np.ndarray, out: list[str]) -> np.ndarray:
    """A, or, when it holds a non-finite entry, zeros (which pass every
    structure check) with that entry reported at its first (row-major)."""
    ok = np.isfinite(A)
    if ok.all():
        return A
    i, j = np.unravel_index(int(ok.argmin()), A.shape)
    out.append(f"{name} has a non-finite entry at ({i},{j})")
    return np.zeros_like(A)


def _block_violations(name: str, A: np.ndarray, n: int, tol_abs: float, out: list[str]) -> None:
    """Check the [[A1, A2], [A2#, A1#]] structure of the 2n x 2n matrix A."""
    swap = np.arange(-n, n)   # columns n..2n-1, then 0..n-1
    lower = np.abs(A[n:, :] - A[:n, swap].conj())
    _report_worst(lower, tol_abs,
                  "{name} block-conjugate symmetry: lower row entry ({i},{j}) "
                  "differs from conjugated upper row by {v:.3e}", out, row0=n, name=name)
    # |A1 - conj(A4)| equals |A4 - conj(A1)|, the right half of `lower`,
    # entry for entry and bit for bit
    _report_worst(lower[:, n:], tol_abs,
                  "{name}1 vs {name}1# block mismatch at ({i},{j}): {v:.3e}", out, name=name)


def _invalid(violations: list[str]) -> ValueError:
    """The error that `certify` raises for a model with the structural
    violations `violations`."""
    return ValueError("model fails structural validation: " + "; ".join(violations))


def validate_model(model: SystemModel) -> list[str]:
    """Return the list of structural violations (empty iff the model is valid).

    The tolerance is DEFAULT_VALIDATION_TOL relative to the max-abs entry of
    the matrix being checked.  A matrix with a non-finite entry is reported
    at the first one, and its structure is not checked.  Dimension
    mismatches and constants that are not real numbers are raised at
    construction time, not reported here."""
    n = model.n_modes
    out: list[str] = []
    tol = DEFAULT_VALIDATION_TOL

    M = _finite("M", model.M, out)
    tol_m = tol * max(1e-300, np.abs(M).max())
    hermitian = np.abs(M - M.conj().T)
    _report_worst(hermitian, tol_m, "M Hermitian symmetry violated at ({i},{j}): {v:.3e}", out)
    # M1 - M1^H is the upper-left block of M - M^H
    _report_worst(hermitian[:n, :n], tol_m, "M1 Hermitian symmetry violated at ({i},{j}): {v:.3e}", out)
    M2 = M[:n, n:]
    _report_worst(np.abs(M2 - M2.T), tol_m, "M2 transpose-symmetry violated at ({i},{j}): {v:.3e}", out)
    _block_violations("M", M, n, tol_m, out)

    N = _finite("N", model.N, out)
    _block_violations("N", N, n, tol * max(1e-300, np.abs(N).max()), out)
    _finite("Etilde", model.Etilde, out)

    if not model.gamma > 0:
        out.append(f"gamma must be positive, got {model.gamma}")
    elif not math.isfinite(model.gamma):
        out.append(f"gamma must be finite, got {model.gamma}")
    for name, delta in (("delta1", model.delta1), ("delta2", model.delta2)):
        if not math.isfinite(delta):
            out.append(f"{name} must be finite, got {delta}")
        elif delta < 0:
            out.append(f"{name} must be nonnegative, got {delta}")
    return out
