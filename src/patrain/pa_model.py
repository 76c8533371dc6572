"""Polynomial power-amplifier model, design matrices and the Rapp reference nonlinearity.

The PA transfer function is modelled as a complex polynomial without intercept,

    f(s) = sum_{l=1..L} beta_l * s * |s|^(l-1),

which is linear in the coefficients once the pilot symbols are expanded into a
design matrix with entries s_n * |s_n|^(l-1).
"""

import math
import numbers
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


def _require_real(value, label: str, nonnegative: bool = False, signed: bool = False) -> float:
    """``value`` as a float if it is a finite real number that is strictly positive, or also zero with
    ``nonnegative``, or of either sign with ``signed``; anything else raises :class:`InvalidInputError`."""
    try:
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    if math.isfinite(number) and (number > 0 or signed or (nonnegative and number == 0)):
        return number
    rule = "" if signed else "nonnegative " if nonnegative else "strictly positive "
    raise InvalidInputError(f"{label} must be a {rule}finite real number, got {value!r}")


def _require_finite(values, label: str, dtype=complex, nonnegative: bool = False, error=NonFiniteInputError):
    """``values`` as an array of ``dtype``; text, a ragged list, complex values for a real ``dtype`` or, with
    ``nonnegative``, a negative entry raise :class:`InvalidInputError`, and a NaN or infinite entry ``error``."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list
        array = np.asarray(None)
    if array.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise InvalidInputError(f"{label} must hold {np.dtype(dtype).name} numbers only")
    array = array.astype(dtype, copy=False)
    if not np.isfinite(array).all():
        raise error(f"{label} holds NaN or infinite entries")
    if nonnegative and (array < 0).any():
        raise InvalidInputError(f"{label} must be nonnegative")
    return array


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
        cap = _require_real(self.max_amplitude, "max_amplitude")
        if symbols.size and np.abs(symbols).max() / (1 + AMPLITUDE_TOLERANCE) > cap:
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
        for label in ("gain", "v_sat", "smoothness"):
            _require_real(getattr(self, label), label)


def eval_polynomial(model: PaPolynomial, s):
    """Evaluate ``f(s) = sum_l beta_l s |s|^(l-1)`` at scalar or array input as ``basis_rows(s, L) @ beta``,
    so noise-free observations equal the ``Phi beta`` of the estimators bit for bit."""
    s_arr = _require_finite(s, "input")
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
    a = _require_finite(amplitude, "amplitude", float, nonnegative=True)
    out = rapp_am_am(params.gain, params.v_sat, params.smoothness, a)
    return float(out) if np.isscalar(amplitude) or a.ndim == 0 else out


def rapp_am_am(gain, v_sat, smoothness, amplitude):
    """The Rapp AM/AM expression of :func:`rapp_response`, broadcast over its inputs.

    Parameter arrays shaped ``(k, 1)`` against an amplitude grid shaped ``(G,)``
    give the ``(k, G)`` responses of ``k`` amplifiers without a Python loop.
    Where ``G a`` or ``(G a / V_sat)^(2 S)`` overflows, the response is its limit ``V_sat``; nothing is validated here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        driven = gain * amplitude
        power = (driven / v_sat) ** (2.0 * smoothness)
        response = np.asarray(driven / (1.0 + power) ** (1.0 / (2.0 * smoothness)))
    np.copyto(response, v_sat, where=np.isinf(power))
    return response
