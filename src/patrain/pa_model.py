"""Polynomial power-amplifier model, design matrices and the Rapp reference nonlinearity.

The PA transfer function is modelled as a complex polynomial without intercept,

    f(s) = sum_{l=1..L} beta_l * s * |s|^(l-1),

which is linear in the coefficients once the pilot symbols are expanded into a
design matrix with entries s_n * |s_n|^(l-1).
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonFiniteInputError

# Condition number above which a matrix is treated as numerically singular.
CONDITION_LIMIT = 1e12

# Relative slack of the power cap check, since |a e^(i phi)| can round an ulp above
# a; dividing the amplitude by 1 plus it keeps a cap near the float maximum finite.
AMPLITUDE_TOLERANCE = 1e-12


def _require_integer(value, label: str, minimum: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer of any kind, at least ``minimum`` if one is given;
    a float, even a whole one, raises :class:`InvalidInputError` instead of being truncated or
    failing inside numpy, and so does a value below ``minimum``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{label} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{label} must be >= {minimum}, got {value}")
    return value


def _require_finite(values, label: str, dtype=complex) -> np.ndarray:
    """``values`` as an array of ``dtype``; a NaN or infinite entry raises :class:`NonFiniteInputError`."""
    values = np.asarray(values, dtype=dtype)
    if not np.isfinite(values).all():
        raise NonFiniteInputError(f"{label} holds NaN or infinite entries")
    return values


@dataclass(frozen=True, eq=False)
class PaPolynomial:
    """Complex polynomial PA model of order ``L = len(coefficients)``.

    ``coefficients[l-1]`` multiplies the basis function ``s * |s|^(l-1)``, so the
    response at ``s = 0`` is always zero (there is no intercept term).
    """

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coef = np.atleast_1d(_require_finite(self.coefficients, "coefficients"))
        if coef.ndim != 1 or coef.size < 1:
            raise InvalidInputError("coefficients must be a nonempty vector")
        object.__setattr__(self, "coefficients", coef)

    @property
    def order(self) -> int:
        return self.coefficients.size


@dataclass(frozen=True, eq=False)
class PilotSequence:
    """Training symbols with a per-symbol amplitude cap ``max_amplitude``."""

    symbols: np.ndarray
    max_amplitude: float = 1.0

    def __post_init__(self) -> None:
        symbols = np.atleast_1d(_require_finite(self.symbols, "symbols"))
        if symbols.ndim != 1:
            raise InvalidInputError("symbols must be a vector")
        if not 0 < self.max_amplitude < np.inf:
            raise InvalidInputError("max_amplitude must be positive and finite")
        if symbols.size and np.abs(symbols).max() / (1 + AMPLITUDE_TOLERANCE) > self.max_amplitude:
            raise InvalidInputError("pilot amplitude exceeds max_amplitude")
        object.__setattr__(self, "symbols", symbols)

    def amplitudes(self) -> np.ndarray:
        return np.abs(self.symbols)

    def __len__(self) -> int:
        return self.symbols.size


@dataclass(frozen=True)
class RappParameters:
    """Rapp amplifier parameters: linear gain, saturation voltage, smoothness."""

    gain: float = 1.0
    v_sat: float = 1.0
    smoothness: float = 2.0

    def __post_init__(self) -> None:
        if not all(0 < value < np.inf for value in (self.gain, self.v_sat, self.smoothness)):
            raise InvalidInputError("all Rapp parameters must be strictly positive and finite")


def eval_polynomial(model: PaPolynomial, s):
    """Evaluate ``f(s) = sum_l beta_l s |s|^(l-1)`` at scalar or array input as ``basis_rows(s, L) @ beta``,
    so noise-free observations equal the ``Phi beta`` of the estimators bit for bit."""
    s_arr = np.asarray(s, dtype=complex)
    out = basis_rows(s_arr, model.order) @ model.coefficients
    return complex(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def basis_rows(s, order: int) -> np.ndarray:
    """Basis rows ``(s, s|s|, ..., s|s|^(order-1))``, one per entry of real or complex ``s``."""
    _require_integer(order, "order", 1)
    s = np.asarray(s)[..., None]
    # Float powers: an integer exponent array would be cast to float on every call.
    return s * np.abs(s) ** np.arange(order, dtype=float)


def build_design_matrix(pilots: PilotSequence, order: int) -> np.ndarray:
    """N x L complex matrix with entry (n, l) = s_n |s_n|^(l-1)."""
    return basis_rows(pilots.symbols, order)


def rapp_response(params: RappParameters, amplitude):
    """Rapp AM/AM response ``G a / (1 + (G a / V_sat)^(2 S))^(1 / (2 S))``.

    ``amplitude`` is a nonnegative input amplitude (scalar or array).  The model
    has no AM/PM distortion, so the response to a complex input is this amplitude
    response times the input phase factor.
    """
    a = np.asarray(amplitude, dtype=float)
    if np.any(a < 0):
        raise InvalidInputError("amplitude must be nonnegative")
    out = rapp_am_am(params.gain, params.v_sat, params.smoothness, a)
    return float(out) if np.isscalar(amplitude) or a.ndim == 0 else out


def rapp_am_am(gain, v_sat, smoothness, amplitude):
    """The Rapp AM/AM expression of :func:`rapp_response`, broadcast over its inputs.

    Parameter arrays shaped ``(k, 1)`` against an amplitude grid shaped ``(G,)``
    give the ``(k, G)`` responses of ``k`` amplifiers without a Python loop.
    Nothing is validated here.
    """
    driven = gain * amplitude
    return driven / (1.0 + (driven / v_sat) ** (2.0 * smoothness)) ** (1.0 / (2.0 * smoothness))
