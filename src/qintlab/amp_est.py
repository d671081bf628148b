"""Quantum mean estimation for n numbers in [0, 1].

The mean a of the loaded values equals the probability of measuring the
value ancilla in e_0 after one oracle application to the uniform
superposition.  Phase estimation with t ancilla qubits on the amplification
operator of that preparation returns an integer y in {0, ..., M-1},
M = 2**t, and the folded estimate sin(pi*y/M)**2.  A single run satisfies

    |estimate - a| <= 2*pi*sqrt(a*(1-a))/M + pi**2/M**2

with probability at least 8/pi**2, at a cost of M oracle queries
(M - 1 amplification steps plus one preparation).

Two execution paths produce the same outcome law: a simulation of the
(t + m + 1)-qubit circuit, and direct sampling from the closed-form
phase-measurement distribution.  The simulation applies the amplification
operator M - 1 times to the prepared state and records the overlaps of the
iterates with it; because the operator is real orthogonal, those overlaps
fix the whole Gram matrix of the iterates and with it the law of the
phase readout, so the t-qubit phase register is never stored and memory
stays O(n).  The operator is a sign flip on the good subspace followed by
a reflection about the prepared state, and the iterates are kept with
that sign flip applied on every other step, so each step is two dot
products, a scale and a subtraction, bit for bit the values of applying
the flip itself.  The simulated law is ground truth for small registers,
the closed form stays cheap when the simulation would not.  Either law is
built once as an ``OutcomeLaw``, which holds its cumulative table; a run
is one uniform and one binary search in that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ledger import ResourceLedger
from .qsim import QuantumState

# Largest (padded item count) * (Grover power budget) still simulated exactly
# when the execution mode is left on "auto"; the simulation's time grows
# with that product.
AUTO_EXACT_LIMIT = 2**20
# Largest Grover-power budget M whose outcome law is built; the law holds
# several length-M arrays (estimates, probabilities and their cumulative
# table), 32 MiB each at this size, for as long as the law lives.
MAX_POWER = 2**22


def _padded(n: int) -> int:
    """Items in the register that holds n values: the next power of two."""
    return 1 << max(0, (n - 1).bit_length())


def simulates(n: int, M: int) -> bool:
    """The size rule of "auto": simulate while the n items' padded register times M stays small."""
    return _padded(n) * M <= AUTO_EXACT_LIMIT


def error_bound(M: int) -> float:
    """Worst-case single-run error bound with M queries, pi/M + pi**2/M**2 (at a = 1/2)."""
    return math.pi / M + math.pi**2 / M**2


@dataclass(frozen=True)
class MeanEstimate:
    """Result of one mean-estimation run (or a boosted median of runs)."""

    value: float
    queries_used: int
    mode: str

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"estimate {self.value} outside [0, 1]")


class RealOracle:
    """Value-loading oracle for numbers x_l in [0, 1].

    Maps the data state b_l with ancilla e_0 to
    b_l (sqrt(x_l) e_0 + sqrt(1 - x_l) e_1).  Item counts that are not a
    power of two are padded with zeros; estimates are rescaled by
    n_padded / n so the mean of the original items is recovered.
    """

    def __init__(self, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("oracle needs a non-empty 1-d value vector")
        if vals.min() < -1e-12 or vals.max() > 1.0 + 1e-12:
            raise ValueError("oracle values must lie in [0, 1]")
        self.n = int(vals.size)
        self.n_padded = _padded(self.n)
        self.m_data = self.n_padded.bit_length() - 1
        self.padded_values = np.zeros(self.n_padded)
        np.clip(vals, 0.0, 1.0, out=self.padded_values[: self.n])

    def padded_mean(self) -> float:
        return float(self.padded_values.sum() / self.n_padded)


def prepared_state(oracle: RealOracle) -> QuantumState:
    """Uniform superposition with values loaded onto the last qubit.

    The ancilla is the least significant qubit, so index 2*l is b_l e_0 and
    the probability of measuring the ancilla in e_0 equals the padded mean.
    """
    amps = _prepared_amplitudes(oracle)
    return QuantumState(oracle.m_data + 1, amps)


def _prepared_amplitudes(oracle: RealOracle) -> np.ndarray:
    """The prepared state's amplitudes, all real and non-negative."""
    amps = np.empty(2 * oracle.n_padded)
    amps[0::2] = np.sqrt(oracle.padded_values / oracle.n_padded)
    amps[1::2] = np.sqrt((1.0 - oracle.padded_values) / oracle.n_padded)
    return amps


def _log2_power_of_two(M: int) -> int:
    t = int(M).bit_length() - 1
    if M < 2 or 2**t != M:
        raise ValueError(f"Grover-power budget must be a power of two >= 2, got {M}")
    if M > MAX_POWER:
        raise ValueError(f"Grover-power budget M = {M} exceeds the largest register law, M = {MAX_POWER}")
    return t


def exact_outcome_distribution(oracle: RealOracle, M: int) -> np.ndarray:
    """Distribution of the raw phase readout y from the simulated circuit.

    The circuit's phase register holds the iterates Q^j psi, j < M, and the
    readout is its inverse Fourier transform, so P(y) is a quadratic form in
    the iterates' Gram matrix.  Q is real orthogonal, so that matrix is the
    Toeplitz matrix of the overlaps c_D = <psi, Q^D psi>, and

        P(y) = M**-2 * Re FFT(s)[y],  s_0 = M*c_0,
        s_D = (M - D)*c_D + D*c_(M-D) for D >= 1.

    Q = R S, where S flips the sign of the good (ancilla e_0) amplitudes and
    R is the reflection 2 psi psi^T - 1.  The loop keeps z = Q^j psi on even
    j and z = S Q^j psi on odd j, with ``flipped`` = S psi.  An even step
    reads c_j = <psi, z> and sets z = 2 <flipped, z> flipped - z; an odd one
    reads c_j = <flipped, z> and sets z = 2 <psi, z> psi - z.  Neither
    applies S.  The overlaps are bit for bit those of applying S at every
    step: S only negates entries, which is exact, rounding commutes with
    negation, and each dot product adds the same products in the same
    order.  Only an exact zero entry may change sign, which changes no sum
    with a nonzero term.  Two preallocated vectors hold the state: memory
    is O(n), time O(n*M) plus one length-M FFT.
    """
    _log2_power_of_two(M)
    psi = _prepared_amplitudes(oracle)
    flipped = psi.copy()
    flipped[0::2] *= -1.0
    z, scaled = psi.copy(), np.empty_like(psi)
    overlaps = np.empty(M)
    dot_psi, dot_flipped = psi.dot, flipped.dot
    multiply, subtract = np.multiply, np.subtract
    overlaps[0] = dot_psi(z)
    for j in range(1, M, 2):
        # Even step: z = Q^(j-1) psi becomes S Q^j psi.
        subtract(multiply(2.0 * dot_flipped(z), flipped, out=scaled), z, out=z)
        overlaps[j] = dot_flipped(z)
        if j + 1 < M:
            # Odd step: back to the plain frame, Q^(j+1) psi.
            subtract(multiply(2.0 * dot_psi(z), psi, out=scaled), z, out=z)
            overlaps[j + 1] = dot_psi(z)
    lag = np.arange(M)
    weights = (M - lag) * overlaps
    weights[1:] += lag[1:] * overlaps[:0:-1]
    return np.fft.fft(weights).real / M**2


def _phase_kernel(delta: np.ndarray, M: int) -> np.ndarray:
    """Probability of a phase readout offset by delta (mod 1) from the truth."""
    frac = np.mod(delta, 1.0)
    dist = np.minimum(frac, 1.0 - frac)
    exact = dist < 1e-12
    safe = np.where(exact, 0.25, frac)
    ratio = np.sin(M * np.pi * safe) / (M * np.sin(np.pi * safe))
    return np.where(exact, 1.0, ratio**2)


def _raw_phase_distribution(a: float, M: int) -> np.ndarray:
    omega = math.asin(math.sqrt(min(max(a, 0.0), 1.0))) / math.pi
    y = np.arange(M)
    return 0.5 * (_phase_kernel(y / M - omega, M) + _phase_kernel(y / M + omega, M))


def _fold(raw: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(M // 2 + 1)
    estimates = np.sin(np.pi * j / M) ** 2
    probs = raw[j].copy()
    if M >= 4:
        probs[1 : M // 2] += raw[M - j[1 : M // 2]]
    return estimates, probs


def phase_estimation_distribution(a: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact outcome law of the folded estimate sin(pi*j/M)**2, j = 0..M/2.

    Returns the estimate values and their probabilities; the probabilities
    sum to one up to roundoff.  This is the independent analytic oracle for
    the simulated estimator and the sampling law of the fast path.
    """
    if not 0.0 <= a <= 1.0 + 1e-12:
        raise ValueError(f"amplitude {a} outside [0, 1]")
    return _fold(_raw_phase_distribution(a, M), M)


def exact_estimate_distribution(oracle: RealOracle, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Folded estimate law from the simulated circuit, for cross-validation."""
    return _fold(exact_outcome_distribution(oracle, M), M)


@dataclass(frozen=True, eq=False)
class OutcomeLaw:
    """Sampling law of one estimation run on n items, with the run's accounting.

    ``estimates[i]`` is the raw (unrescaled) estimate drawn with probability
    ``probs[i]``.  A law does not depend on the random stream, so it can be
    built once and drawn from for every run on the same oracle.  Building it
    pads n to ``n_padded``, fixes the per-run charge, checks ``probs`` as
    ``Generator.choice`` does and stores the cumulative table ``cdf``; a run
    is then one uniform and one binary search in it, which is ``choice``'s
    own draw, so outcomes match ``choice(p=probs)``.
    """

    estimates: np.ndarray
    probs: np.ndarray
    M: int
    n: int
    mode: str
    n_padded: int = field(init=False)
    bits: int = field(init=False, repr=False)
    gates: int = field(init=False, repr=False)
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = self.probs
        if not np.isfinite(p).all() or (p < 0).any():
            raise ValueError("outcome probabilities must be finite and non-negative")
        if abs(float(p.sum()) - 1.0) > math.sqrt(np.finfo(float).eps):
            raise ValueError("outcome probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        n_padded = _padded(self.n)
        m_data, t, M = n_padded.bit_length() - 1, self.M.bit_length() - 1, self.M
        # Ancilla Hadamards, preparation (Walsh-Hadamard plus one oracle gate),
        # M - 1 amplification steps at 2*(m_data + 1) + 4 gates each, inverse
        # Fourier transform on t qubits.
        gates = t + (m_data + 1) + (M - 1) * (2 * m_data + 6) + t * (t + 1) // 2
        for name, value in (("n_padded", n_padded), ("bits", t), ("gates", gates), ("cdf", cdf)):
            object.__setattr__(self, name, value)

    def draw(self, rng: np.random.Generator, ledger: ResourceLedger | None = None) -> MeanEstimate:
        """One run: a single outcome draw, rescaled by n_padded / n and charged."""
        raw = float(self.estimates[self.cdf.searchsorted(rng.random(), side="right")])
        if ledger is not None:
            ledger.quantum_queries += self.M
            ledger.random_bits += self.bits
            ledger.gates += self.gates
        value = min(1.0, raw * self.n_padded / self.n)
        return MeanEstimate(value=value, queries_used=self.M, mode=self.mode)


def amplitude_law(total: float, n: int, M: int) -> OutcomeLaw:
    """Closed-form law of the folded estimate for n items in [0, 1] summing to ``total``.

    The zero-padded register's amplitude is ``total / n_padded``.  Accounting
    matches a run on the materialised n-item oracle, so the caller may stream
    ``total`` from however many values exist.
    """
    _log2_power_of_two(M)
    estimates, probs = phase_estimation_distribution(total / _padded(n), M)
    probs = np.clip(probs, 0.0, None)
    return OutcomeLaw(estimates, probs / probs.sum(), M, n, "analytic")


def outcome_law(oracle: RealOracle, M: int, mode: str = "auto") -> OutcomeLaw:
    """The law ``estimate_mean`` draws from.

    "exact" takes the law of the raw readout y from the simulated circuit
    (``exact_outcome_distribution``), "analytic" the closed-form law of the
    folded estimate, and "auto" is exact while ``simulates(oracle.n, M)``.
    """
    if mode not in ("auto", "exact", "analytic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if simulates(oracle.n, M) else "analytic"
    if mode == "analytic":
        return amplitude_law(oracle.padded_values.sum(), oracle.n, M)
    probs = exact_outcome_distribution(oracle, M)
    # ``** 2`` is pow(s, 2), which rounds some squares unlike s * s.
    estimates = np.array([math.sin(a) ** 2 for a in (math.pi * np.arange(M) / M).tolist()])
    return OutcomeLaw(estimates, np.clip(probs, 0.0, None) / probs.sum(), M, oracle.n, "exact")


def estimate_mean_from_amplitude(
    total: float,
    n: int,
    M: int,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
) -> MeanEstimate:
    """Analytic-path run for an oracle too large to materialise.

    ``total`` is the sum of the n items; the caller streams it from however
    many values exist.  Accounting matches a run on the materialised oracle.
    """
    return amplitude_law(total, n, M).draw(rng, ledger)


def estimate_mean(
    oracle: RealOracle,
    M: int,
    rng: np.random.Generator,
    mode: str = "auto",
    ledger: ResourceLedger | None = None,
) -> MeanEstimate:
    """One estimation run with a Grover-power budget of M = 2**t.

    ``mode`` is "exact" (simulated circuit), "analytic" (sample the
    closed-form law), or "auto" (exact while ``simulates(oracle.n, M)``).
    Estimates for padded oracles are rescaled by n_padded / n and clipped
    to [0, 1].
    """
    return outcome_law(oracle, M, mode).draw(rng, ledger)


def smallest_power_for_error(eps: float) -> int:
    """Smallest M = 2**t whose ``error_bound`` is <= eps; M grows linearly in 1/eps."""
    if eps <= 0:
        raise ValueError("target error must be positive")
    M = 2
    while error_bound(M) > eps * (1.0 + 1e-12):
        M *= 2
    return M


def median_boost(
    single_run: Callable[[np.random.Generator], MeanEstimate],
    r: int,
    rng: np.random.Generator,
) -> MeanEstimate:
    """Median of r independent runs; r must be odd.

    When each run succeeds with probability at least 3/4, the boosted
    failure probability is at most the Binomial(r, 1/4) upper tail at
    ceil(r/2).
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"repetition count must be odd, got {r}")
    runs = [single_run(rng) for _ in range(r)]
    values = sorted(est.value for est in runs)
    modes = {est.mode for est in runs}
    return MeanEstimate(
        value=values[r // 2],
        queries_used=sum(est.queries_used for est in runs),
        mode=modes.pop() if len(modes) == 1 else "mixed",
    )
