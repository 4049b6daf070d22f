"""Slow-time echo model for a frequency-agile pulse radar.

Each pulse hops its carrier to f_c + d_n * B where d_n in [0, 1) is the
(random) frequency code of pulse n.  After stretch processing, a point
scatterer contributes one sample per pulse:

    y[n] = gamma * exp(1j * (p * M * d_n + q * n * zeta_n))

with p the range phase, q the Doppler phase, M the number of range bins
resolved inside one coarse bin, and zeta_n an optional per-pulse Doppler
scaling that accounts for the carrier hop (``BandwidthMode.EXACT``) or is
frozen to 1 (``BandwidthMode.APPROXIMATE``).
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, DomainError, ShapeError, check_array, check_attributes,
                     check_integer, check_numbers, check_positive, check_real)

TWO_PI = 2.0 * math.pi
# speed of light in vacuum, m/s: exact by the SI definition of the metre
_SPEED_OF_LIGHT = 299_792_458.0


class BandwidthMode(enum.Enum):
    """How the per-pulse Doppler scaling zeta_n is treated."""

    EXACT = "exact"  # zeta_n = 1 + d_n * B / f_c
    APPROXIMATE = "approximate"  # zeta_n = 1


@dataclass(frozen=True)
class RadarParams:
    """Static description of one coherent processing interval.

    Only the pulse count and range-bin count are required; carrier,
    bandwidth and timing are optional and only needed when converting to
    physical units or when running in ``BandwidthMode.EXACT``.
    """

    n_pulses: int  # N, pulses per CPI
    n_hrr_bins: int  # M, fine range bins per coarse bin
    n_codes: int | None = None  # M*, size of the hop set (defaults to M)
    carrier_hz: float | None = None  # f_c
    bandwidth_hz: float | None = None  # B, synthetic bandwidth
    pri_s: float | None = None  # T_r, pulse repetition interval
    pulse_width_s: float | None = None  # T_p
    mode: BandwidthMode = BandwidthMode.APPROXIMATE

    def __post_init__(self):
        if self.n_codes is None:
            object.__setattr__(self, "n_codes", self.n_hrr_bins)
        for name in ("n_pulses", "n_hrr_bins", "n_codes"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))
        if self.n_codes < self.n_hrr_bins:
            raise ConfigurationError(
                f"n_codes={self.n_codes} must be >= n_hrr_bins={self.n_hrr_bins} "
                "(coarser hop sets alias range bins)"
            )
        # bandwidth_hz == 0.0 is tolerated as the degenerate "no relative
        # bandwidth" setting used by dimensionless studies; physical
        # configurations (with pulse timing) need a real bandwidth.
        for name, zero_ok in (("carrier_hz", False), ("bandwidth_hz", True),
                              ("pulse_width_s", False), ("pri_s", False)):
            if getattr(self, name) is not None:
                check_positive(name, getattr(self, name), zero_ok)
        if self.pulse_width_s is not None:
            if not self.bandwidth_hz:
                raise ConfigurationError("pulse_width_s given without a positive bandwidth_hz")
            expected = math.ceil(self.pulse_width_s * self.bandwidth_hz)
            if expected != self.n_hrr_bins:
                raise ConfigurationError(
                    f"n_hrr_bins={self.n_hrr_bins} inconsistent with "
                    f"ceil(pulse_width_s * bandwidth_hz)={expected}"
                )
        if self.pri_s is not None and self.pulse_width_s is not None:
            if not self.pri_s > self.pulse_width_s:
                raise ConfigurationError("pri_s must exceed pulse_width_s")
        if not isinstance(self.mode, BandwidthMode):
            raise ConfigurationError(f"mode must be a BandwidthMode, got {self.mode!r}")
        if self.mode is BandwidthMode.EXACT:
            if self.carrier_hz is None or self.bandwidth_hz is None:
                raise ConfigurationError(
                    "BandwidthMode.EXACT needs carrier_hz and bandwidth_hz to form B/f_c"
                )

    @classmethod
    def abstract(cls, n_pulses, n_hrr_bins, n_codes=None, relative_bandwidth=0.0):
        """Dimensionless setup for numerical studies.

        ``relative_bandwidth`` is B/f_c; the carrier is pinned to 1 Hz so the
        stored bandwidth doubles as the ratio.  The mode follows the ratio:
        EXACT when it is positive, otherwise APPROXIMATE.
        """
        check_positive("relative_bandwidth", relative_bandwidth, zero_ok=True)
        mode = BandwidthMode.EXACT if relative_bandwidth > 0 else BandwidthMode.APPROXIMATE
        return cls(
            n_pulses=n_pulses,
            n_hrr_bins=n_hrr_bins,
            n_codes=n_codes,
            carrier_hz=1.0,
            bandwidth_hz=float(relative_bandwidth),
            mode=mode,
        )

    @property
    def n_columns(self) -> int:
        """Number of range-Doppler grid cells, N * M."""
        return self.n_pulses * self.n_hrr_bins

    @property
    def relative_bandwidth(self) -> float:
        """B/f_c, or 0.0 when carrier or bandwidth are unset."""
        if self.carrier_hz is None or self.bandwidth_hz is None:
            return 0.0
        return self.bandwidth_hz / self.carrier_hz

    @property
    def hrr_bin_size_m(self) -> float:
        """Fine range resolution c / (2B)."""
        if not self.bandwidth_hz:
            raise ConfigurationError("hrr_bin_size_m needs a positive bandwidth_hz")
        return _SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)


@dataclass(frozen=True, eq=False)
class FrequencyCodes:
    """One realization d_0..d_{N-1} of the per-pulse frequency codes.

    ``n_codes`` is the size M* of the discrete hop set the codes were drawn
    from, or None for continuous (uniform on [0, 1)) codes.  Discrete codes
    are mapped to their hop indices k_n = rint(d_n * M*) here, once: a code
    more than 1e-9 off the grid, or one that rounds to k = M*, is rejected,
    and the rest are stored as d_n = k_n / M* exactly, with the k_n kept in
    the read-only ``hops`` array (None for continuous codes).
    """

    codes: np.ndarray
    n_codes: int | None = None
    hops: np.ndarray | None = field(default=None, init=False)

    def __reduce__(self):  # unpickling runs the checks and sets the arrays read-only again
        return FrequencyCodes, (self.codes, self.n_codes)

    @classmethod
    def _from_hops(cls, hops: np.ndarray, n_codes: int) -> FrequencyCodes:
        """Codes k_n / M* from hop indices already known to lie in [0, M*), unchecked.

        The codes and hops are those ``FrequencyCodes(hops / n_codes, n_codes)``
        stores, bit for bit, without re-deriving the hops from the codes.
        """
        instance = object.__new__(cls)
        hops = hops.astype(np.intp, copy=False)
        hops.setflags(write=False)
        codes = hops / n_codes
        codes.setflags(write=False)
        instance.__dict__.update(codes=codes, n_codes=n_codes, hops=hops)
        return instance

    def __post_init__(self):
        arr = check_array("codes", self.codes, np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeError(f"codes must be a 1-D non-empty array, got shape {arr.shape}")
        if not np.all((arr >= 0.0) & (arr < 1.0)):
            raise DomainError("codes must lie in [0, 1)")
        q = self.n_codes
        if q is not None:
            check_integer("n_codes", q, 1)
            scaled = arr * q
            hops = np.rint(scaled)
            if np.max(np.abs(scaled - hops)) > 1e-9 or hops.max() >= q:
                raise DomainError(f"discrete codes must be k/{q} with k in [0, {q})")
            hops = hops.astype(np.intp)
            hops.setflags(write=False)
            arr = hops / q
            object.__setattr__(self, "hops", hops)
        arr.setflags(write=False)
        object.__setattr__(self, "codes", arr)

    @property
    def n_pulses(self) -> int:
        return self.codes.size

    @property
    def is_discrete(self) -> bool:
        return self.n_codes is not None


def sample_codes(seed, n_pulses, n_codes=None) -> FrequencyCodes:
    """Draw one code realization.

    Parameters
    ----------
    seed : int, np.random.Generator, or anything default_rng accepts.
    n_pulses : number of codes to draw.
    n_codes : size of the discrete hop set {0, 1/M*, ..., (M*-1)/M*};
        None draws continuous codes uniform on [0, 1).
    """
    n_pulses = check_integer("n_pulses", n_pulses, 1)
    if n_codes is not None:
        n_codes = check_integer("n_codes", n_codes, 1)
    draw = _draw_codes(seed, n_pulses, n_codes)
    if n_codes is None:
        return FrequencyCodes(codes=draw)
    return FrequencyCodes._from_hops(draw, n_codes)


def _draw_codes(seed, n_pulses: int, n_codes: int | None) -> np.ndarray:
    """The raw draw behind ``sample_codes``, unchecked: hop indices k_n in [0, M*), or codes.

    With ``n_codes`` None the N codes are uniform on [0, 1).
    """
    rng = _default_rng(seed)
    if n_codes is None:
        return rng.random(n_pulses)
    return rng.integers(0, n_codes, size=n_pulses)


def _default_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, or ConfigurationError for a seed it refuses."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"seed {seed!r:.80} is not one numpy can seed a Generator "
                                 f"with: {exc}") from None


def zeta(code, bandwidth_hz, carrier_hz):
    """EXACT-mode per-pulse Doppler scaling 1 + d_n * B / f_c.

    Accepts a scalar code or an array of codes.  In APPROXIMATE mode the
    scaling is 1 (``pulse_doppler_scalings``).
    """
    code = check_array("code", code, np.float64)
    if not np.all((code >= 0.0) & (code < 1.0)):
        raise DomainError("codes must lie in [0, 1)")
    check_positive("carrier_hz", carrier_hz)
    check_positive("bandwidth_hz", bandwidth_hz, zero_ok=True)
    out = 1.0 + code * (bandwidth_hz / carrier_hz)
    return out if out.ndim else float(out)


def pulse_doppler_scalings(params: RadarParams, codes: FrequencyCodes) -> np.ndarray:
    """zeta_n for every pulse of a code realization, shape (N,)."""
    n_pulses = check_attributes("RadarParams", params, "n_pulses")[0]
    n_code_pulses = check_attributes("FrequencyCodes", codes, "n_pulses")[0]
    if n_code_pulses != n_pulses:
        raise ShapeError(f"codes has {n_code_pulses} pulses, params expects {n_pulses}")
    if params.mode is BandwidthMode.APPROXIMATE:
        return np.ones(n_pulses)
    return zeta(codes.codes, params.bandwidth_hz, params.carrier_hz)


def _amplitude(value) -> complex:
    """``value`` as a complex if it is a finite, non-bool number, else DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise DomainError(f"amplitude must be a number, got {value!r}")
    amplitude = complex(value)
    if not cmath.isfinite(amplitude):
        raise DomainError(f"amplitude must be finite, got {value!r}")
    return amplitude


@dataclass(frozen=True)
class Scatterer:
    """One point scatterer in phase coordinates.

    ``amplitude`` is a finite number; ``p`` and ``q`` are the range and
    Doppler phases in [0, 2*pi).  Anything else is a DomainError.  An
    on-grid scatterer's cell (m, n) follows from its phases,
    p = 2*pi*m/M and q = 2*pi*n/N.
    """

    amplitude: complex
    p: float
    q: float

    def __post_init__(self):
        _amplitude(self.amplitude)
        for name, val in (("p", self.p), ("q", self.q)):
            if not 0.0 <= check_real(name, val, DomainError) < TWO_PI:
                raise DomainError(f"{name}={val} outside [0, 2*pi)")

    @classmethod
    def on_grid(cls, m, n, params: RadarParams, amplitude=1.0 + 0.0j) -> "Scatterer":
        """Scatterer sitting exactly on grid cell (m, n)."""
        M, N = check_attributes("RadarParams", params, "n_hrr_bins", "n_pulses")
        m, n = check_integer("m", m, 0, DomainError), check_integer("n", n, 0, DomainError)
        if m >= M:
            raise DomainError(f"m={m} outside [0, {M})")
        if n >= N:
            raise DomainError(f"n={n} outside [0, {N})")
        return cls(amplitude=_amplitude(amplitude), p=TWO_PI * m / M, q=TWO_PI * n / N)


@dataclass(frozen=True)
class Scene:
    """A collection of scatterers with pairwise-distinct (p, q), else ConfigurationError."""

    scatterers: tuple[Scatterer, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "scatterers", tuple(self.scatterers))
        except TypeError:
            raise ConfigurationError(
                f"scatterers must be a sequence, got {self.scatterers!r}") from None
        seen = set()
        for s in self.scatterers:
            if not isinstance(s, Scatterer):
                raise ConfigurationError(f"a Scene holds Scatterers, got {s!r}")
            key = (s.p, s.q)
            if key in seen:
                raise ConfigurationError(f"duplicate scatterer at (p, q)={key}")
            seen.add(key)

    @property
    def sparsity(self) -> int:
        return len(self.scatterers)


def flat_grid_index(hrr_idx, doppler_idx, n_pulses) -> int:
    """Column n + m * N of cell (m, n): integers m >= 0, 0 <= n < N (else DomainError), N >= 1."""
    hrr_idx = check_integer("hrr_idx", hrr_idx, 0, DomainError)
    doppler_idx = check_integer("doppler_idx", doppler_idx, 0, DomainError)
    n_pulses = check_integer("n_pulses", n_pulses, 1)
    if doppler_idx >= n_pulses:
        raise DomainError(f"doppler_idx={doppler_idx} outside [0, {n_pulses})")
    return doppler_idx + hrr_idx * n_pulses


def _phase_cell(value, size, name) -> int:
    """The cell k in [0, size) of an on-grid phase value = 2*pi*k/size, else DomainError."""
    if not 0.0 <= check_real(name, value, DomainError) < TWO_PI:
        raise DomainError(f"{name}={value} outside [0, 2*pi)")
    step = TWO_PI / size
    ratio = value / step
    if abs(ratio - round(ratio)) > 1e-9:
        raise DomainError(f"{name}={value} is not a multiple of {step}")
    return int(round(ratio)) % size  # a value just under 2*pi is index 0


def scene_to_vector(scene: Scene, params: RadarParams) -> np.ndarray:
    """Vectorize an on-grid scene into the length-N*M coefficient vector.

    Each scatterer's cell (m, n) is read from its phases (p, q), which must
    lie within 1e-9 of a cell (``_phase_cell``), else DomainError.
    """
    M, N = check_attributes("RadarParams", params, "n_hrr_bins", "n_pulses")
    x = np.zeros(N * M, dtype=np.complex128)
    for s in check_attributes("a Scene", scene, "scatterers")[0]:
        x[flat_grid_index(_phase_cell(s.p, M, "p"), _phase_cell(s.q, N, "q"), N)] += s.amplitude
    return x


def synthesize_echoes(params: RadarParams, codes: FrequencyCodes, scene: Scene) -> np.ndarray:
    """Noise-free slow-time samples of a scene, shape (N,) complex.

    Superposition over scatterers of
    ``amplitude * exp(1j * (p * M * d_n + q * n * zeta_n))``.
    """
    zetas = pulse_doppler_scalings(params, codes)
    n_idx = np.arange(params.n_pulses)
    y = np.zeros(params.n_pulses, dtype=np.complex128)
    for s in check_attributes("a Scene", scene, "scatterers")[0]:
        phase = s.p * params.n_hrr_bins * codes.codes + s.q * n_idx * zetas
        y += s.amplitude * np.exp(1j * phase)
    return y


def add_noise(y, sigma2, seed) -> np.ndarray:
    """Add circular complex white Gaussian noise of total variance sigma2.

    Real and imaginary parts each get variance sigma2 / 2, so
    E|noise|^2 = sigma2.  ``seed`` may be an int or a Generator.
    """
    check_positive("sigma2", sigma2, zero_ok=True)
    y = check_array("y", y, np.complex128)
    if sigma2 == 0:
        return y.copy()
    rng = _default_rng(seed)
    scale = math.sqrt(sigma2 / 2.0)
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return y + scale * noise


def _require_physical(params: RadarParams):
    carrier_hz, bandwidth_hz, pri_s = check_attributes("RadarParams", params, "carrier_hz",
                                                       "bandwidth_hz", "pri_s")
    if not carrier_hz:
        raise ConfigurationError("physical conversion needs carrier_hz")
    if not bandwidth_hz:
        raise ConfigurationError("physical conversion needs a positive bandwidth_hz")
    if not pri_s:
        raise ConfigurationError("physical conversion needs pri_s")


def to_physical(p, q, amplitude, params: RadarParams):
    """Map phase coordinates to (range_m, velocity_mps, intensity).

    range = -M c p / (4 pi B), velocity = -c q / (4 pi f_c T_r),
    intensity = |amplitude|.  The phases are taken as-is (no wrapping), so
    the map is the exact inverse of ``from_physical``.  Each argument is a
    number or an array of numbers, else DomainError.
    """
    _require_physical(params)
    check_numbers("p", p)
    check_numbers("q", q)
    rng_m = -params.n_hrr_bins * _SPEED_OF_LIGHT * p / (4.0 * math.pi * params.bandwidth_hz)
    vel = -_SPEED_OF_LIGHT * q / (4.0 * math.pi * params.carrier_hz * params.pri_s)
    return rng_m, vel, abs(check_numbers("amplitude", amplitude))


def from_physical(range_m, velocity_mps, params: RadarParams):
    """Map (range, velocity) to raw phase coordinates (p, q).

    p = -4 pi B range / (M c), q = -4 pi f_c velocity T_r / c.  The result is
    not wrapped into [0, 2*pi); wrap with ``p % (2*pi)`` before building a
    ``Scatterer`` if needed.  Each argument is a number or an array of
    numbers, else DomainError.
    """
    _require_physical(params)
    check_numbers("range_m", range_m)
    check_numbers("velocity_mps", velocity_mps)
    p = -4.0 * math.pi * params.bandwidth_hz * range_m / (params.n_hrr_bins * _SPEED_OF_LIGHT)
    q = -4.0 * math.pi * params.carrier_hz * velocity_mps * params.pri_s / _SPEED_OF_LIGHT
    return p, q
