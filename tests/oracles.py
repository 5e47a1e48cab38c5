"""Independent brute-force oracles used to freeze expected test values.

Deliberately different algorithms from the production code: the closure
oracle commutes *all pairs* each round and measures rank by SVD of the
out-of-span residuals, rather than generator-only breadth-first search
with incremental Gram-Schmidt.  The unitary propagation oracle takes the
Gauss-node form of the fourth-order commutator-free Magnus step one step
at a time with complex arithmetic, rather than as two half-steps at 1/6
and 5/6 of the step in real symmetric batches.  The Strang oracle takes
that Gauss-node step between per-atom Kraus matrices built with ``kron``,
one step at a time, rather than gathered block exponentials and damping
on a reshaped view.  The RK4 oracle integrates the master equation
itself, a reference that does not use the splitting.  The commutator
oracle applies the symplectic sign rule one term pair at a time on
PauliSum dicts, rather than on batched mask arrays.  The string BFS
follows which strings brackets reach, as sets of integer mask pairs, with
no coefficients and no GF(p) rows.  The sign-key oracle tries every
diagonal sign pattern instead of solving for the gradings over GF(2).
"""

import numpy as np


def _vec(m):
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _unvec(row, d):
    m = row[: d * d].reshape(d, d) + 1j * row[d * d:].reshape(d, d)
    return (m + m.conj().T) / 2


def dense_closure_dimension(generators, tol=1e-9, max_rounds=60):
    """Dimension of the Lie closure by all-pairs commutators + SVD rank."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    d = gens[0].shape[0]
    stack = np.stack([_vec(g / np.linalg.norm(g)) for g in gens])
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    B = vt[s > 1e-9 * s[0]]
    for _ in range(max_rounds):
        basis = [_unvec(row, d) for row in B]
        residuals = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                c = (basis[i] @ basis[j] - basis[j] @ basis[i]) / 2j
                v = _vec(c)
                nv = np.linalg.norm(v)
                if nv < 1e-12:
                    continue
                r = v - (v @ B.T) @ B
                r = r - (r @ B.T) @ B
                # absolute floor: operands are unit norm, so genuine new
                # directions are far above accumulated roundoff
                if np.linalg.norm(r) > max(tol * nv, 1e-9):
                    residuals.append(r / np.linalg.norm(r))
        if not residuals:
            return B.shape[0]
        u, s, vt = np.linalg.svd(np.stack(residuals), full_matrices=False)
        new_rows = vt[s > 1e-6 * s[0]]
        B = np.concatenate([B, new_rows])
        # re-orthonormalize the enlarged basis
        q, _ = np.linalg.qr(B.T)
        B = q.T
    raise RuntimeError("oracle closure did not converge")


def sign_keys(generators):
    """Per entry (a, b), an integer naming its parities lam_a ^ lam_b under
    every sign pattern lam with diag((-1)^lam) g diag((-1)^lam) = +/- g for
    each generator g, found by trying all 2**d patterns."""
    d = len(generators[0])
    lam = (np.arange(2 ** d)[:, None] >> np.arange(d) & 1).astype(np.uint8)
    for g in generators:
        a, b = np.nonzero(g)
        par = lam[:, a] ^ lam[:, b]
        lam = lam[(par == par[:, :1]).all(axis=1)]
    par = (lam[:, :, None] ^ lam[:, None, :]).reshape(len(lam), d * d)
    return np.unique(par, axis=1, return_inverse=True)[1].reshape(d, d)


def scalar_commutator(a, b):
    """(1/(2i))[A, B] of two PauliSums, one term pair at a time."""
    from liectrl.pauli import PauliSum

    def popcount(v):
        return bin(v).count("1")

    acc = {}
    for (x1, z1), c1 in a.terms.items():
        q1 = popcount(x1 & z1)
        for (x2, z2), c2 in b.terms.items():
            # anticommute iff the symplectic form is odd
            if (popcount(z1 & x2) + popcount(x1 & z2)) % 2 == 0:
                continue
            x3, z3 = x1 ^ x2, z1 ^ z2
            q3 = popcount(x3 & z3)
            e = (q1 + popcount(x2 & z2) + 2 * popcount(z1 & x2) - 1 - q3) % 4
            sign = 1.0 if e == 0 else -1.0
            key = (x3, z3)
            acc[key] = acc.get(key, 0.0) + sign * c1 * c2
    return PauliSum(a.n_qubits, acc)


def string_bfs(generators):
    """Every Pauli string that nested brackets of the ``generators`` strings reach.

    Strings are (x_mask, z_mask) pairs.  Two strings anticommute iff their
    symplectic form is odd, and their bracket is then +/- the string
    (x1 ^ x2, z1 ^ z2); commuting strings bracket to 0.  Signs do not
    change which strings are reached, so each is kept as a set member.
    """
    def anticommute(a, b):
        return (bin(a[0] & b[1]).count("1") + bin(a[1] & b[0]).count("1")) % 2 == 1

    reached, frontier = set(generators), set(generators)
    while frontier:
        frontier = {(s[0] ^ g[0], s[1] ^ g[1]) for s in frontier for g in generators
                    if anticommute(s, g)} - reached
        reached |= frontier
    return reached


def reflection_sector_dimension(n_qubits):
    """Closure dimension of a reflection-symmetric chain (the d-plus-minus formula).

    The reflection splits the 2^N-dimensional space into even and odd
    parts of sizes d+ and d- = (2^N +- 2^ceil(N/2)) / 2; the dimension is
    (d+^2 - 1) + (d-^2 - 1), plus one for even N.
    """
    half = 2 ** ((n_qubits + 1) // 2)
    d_plus = (2 ** n_qubits + half) // 2
    d_minus = (2 ** n_qubits - half) // 2
    return (d_plus ** 2 - 1) + (d_minus ** 2 - 1) + (n_qubits % 2 == 0)


def pauli_rydberg_terms(geom):
    """(sum X_l, sum n_l, V) summed as Pauli strings, then made dense."""
    from liectrl.pauli import PauliSum

    n = geom.n_atoms
    x_total = sum((PauliSum.single_site(n, l, "X") for l in range(1, n + 1)), PauliSum(n))
    # n_l = (I - Z_l)/2
    n_total = sum((PauliSum(n, {(0, 0): 0.5, (0, 1 << (l - 1)): -0.5}) for l in range(1, n + 1)),
                  PauliSum(n))
    v = PauliSum(n)
    for j in range(1, n + 1):
        for l in range(j + 1, n + 1):
            zj, zl = 1 << (j - 1), 1 << (l - 1)  # n_j n_l = (I - Z_j - Z_l + Z_j Z_l)/4
            njl = PauliSum(n, {(0, 0): 0.25, (0, zj): -0.25, (0, zl): -0.25, (0, zj | zl): 0.25})
            v = v + njl * geom.interaction(j, l)
    return x_total.to_dense(), n_total.to_dense(), v.to_dense()


def _gauss_cf4_intervals(pulse, geom, step, substeps=None, noise=None):
    """Per knot interval: its step length h and its CF4 step unitaries.

    Each step of length h samples the controls as scalars at the Gauss
    nodes c = 1/2 -+ sqrt(3)/6, builds H1 and H2 from the Pauli-form
    pieces and gives
    exp(-i h (a1 H1 + a2 H2)) exp(-i h (a2 H1 + a1 H2)),
    a = (3 -+ 2 sqrt(3))/12, each from a complex ``eigh``.  The
    controls are interpolated from the knots of the step's interval at the
    node's fraction of it, so large absolute times add no roundoff.  An
    interval takes ``substeps`` steps, or the fewest no longer than ``step``.
    """
    c1, c2 = 0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6
    a1, a2 = (3 - 2 * np.sqrt(3)) / 12, (3 + 2 * np.sqrt(3)) / 12
    x_tot, n_tot, v = pauli_rydberg_terms(geom)

    def hamiltonian(k, frac):  # controls interpolated inside knot interval k
        om, de = (a[k] + frac * (a[k + 1] - a[k]) for a in (pulse.omegas, pulse.deltas))
        if noise is not None:
            om, de = noise.realized_controls(om, de)
        return (om / 2.0) * x_tot - de * n_tot + v

    def expm(a):
        evals, vecs = np.linalg.eigh(a)
        return (vecs * np.exp(-1j * evals)) @ vecs.conj().T

    def steps(k, n_steps, h):
        for s in range(n_steps):
            h1, h2 = hamiltonian(k, (s + c1) / n_steps), hamiltonian(k, (s + c2) / n_steps)
            yield expm(h * (a1 * h1 + a2 * h2)) @ expm(h * (a2 * h1 + a1 * h2))

    for k in range(pulse.n_knots - 1):
        t0, t1 = pulse.times[k], pulse.times[k + 1]
        n_steps = substeps or max(1, int(np.ceil(round((t1 - t0) / step, 9))))
        h = (t1 - t0) / n_steps
        yield h, steps(k, n_steps, h)


def stepwise_unitary_trajectory(pulse, geom, substeps=None, noise=None):
    """CF4 propagator snapshots at the knots, one step at a time."""
    from liectrl.propagation import DEFAULT_STEP

    u = np.eye(2 ** geom.n_atoms, dtype=complex)
    out = [(float(pulse.times[0]), u.copy())]
    for t1, (_, steps) in zip(pulse.times[1:], _gauss_cf4_intervals(pulse, geom, DEFAULT_STEP,
                                                                   substeps, noise)):
        for step in steps:
            u = step @ u
        out.append((float(t1), u.copy()))
    return out


def _initial_density(initial_state, dim):
    rho = np.asarray(np.eye(dim)[0] if initial_state is None else initial_state, dtype=complex)
    return np.outer(rho, rho.conj()) if rho.ndim == 1 else rho


def kron_on_site(op, site, n_atoms):
    """A one-atom operator on 0-based ``site`` (qubit 1 = most significant kron factor)."""
    return np.kron(np.kron(np.eye(2 ** site), op), np.eye(2 ** (n_atoms - site - 1)))


def damping_kraus(p, n_atoms):
    """Each atom's amplitude-damping Kraus pair K0 = diag(1, sqrt(1 - p)), K1 = sqrt(p)|g><r|."""
    return [[kron_on_site(np.array(k, dtype=complex), site, n_atoms)
             for k in ([[1, 0], [0, np.sqrt(1 - p)]], [[0, np.sqrt(p)], [0, 0]])]
            for site in range(n_atoms)]


def kraus_damp(rho, kraus):
    """rho through each atom's channel K0 rho K0^dag + K1 rho K1^dag in turn."""
    for pair in kraus:
        rho = sum(k @ rho @ k.conj().T for k in pair)
    return rho


def lowering_operators(n_atoms):
    """Dense |g><r| on each atom (qubit 1 = most significant kron factor)."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    return [kron_on_site(lower, site, n_atoms) for site in range(n_atoms)]


def stepwise_strang_trajectory(pulse, geom, noise, dt=None, initial_state=None):
    """Strang-split density-matrix snapshots (t, rho) at the knots.

    Every step of length h applies the amplitude damping of probability
    p = 1 - exp(-gamma h/2) atom by atom as Kraus sums
    K0 rho K0^dag + K1 rho K1^dag, K0 = diag(1, sqrt(1 - p)) and
    K1 = sqrt(p)|g><r| on that atom, then U rho U^dag with the Gauss-node
    CF4 step U, then the damping again.  Each knot interval takes the
    fewest equal steps no longer than ``dt``.
    """
    from liectrl.propagation import DEFAULT_LINDBLAD_DT

    n = geom.n_atoms
    rho = _initial_density(initial_state, 2 ** n)
    out = [(float(pulse.times[0]), rho.copy())]
    for t1, (h, steps) in zip(pulse.times[1:], _gauss_cf4_intervals(
            pulse, geom, dt or DEFAULT_LINDBLAD_DT, noise=noise)):
        kraus = damping_kraus(1 - np.exp(-noise.gamma * h / 2), n)
        for u in steps:
            rho = kraus_damp(u @ kraus_damp(rho, kraus) @ u.conj().T, kraus)
        out.append((float(t1), rho.copy()))
    return out


def stepwise_lindblad_trajectory(pulse, geom, noise, dt, initial_state=None):
    """RK4 density-matrix snapshots (t, rho) at the knots, one stage at a time.

    Every stage samples the controls as scalars, builds H from the
    Pauli-form pieces and evaluates -i[H, rho] plus each atom's dissipator
    separately.  Each knot interval takes the fewest equal steps no longer
    than ``dt``.  RK4 is not a quantum channel: keep ``dt`` small (5e-4 on
    3 atoms) for a reference.
    """
    x_tot, n_tot, v = pauli_rydberg_terms(geom)
    rho = _initial_density(initial_state, x_tot.shape[0])
    lowers = lowering_operators(geom.n_atoms)
    numbers = [low.conj().T @ low for low in lowers]

    def rhs(t, rho):
        om, de = noise.realized_controls(*pulse.sample(t))
        h = (om / 2.0) * x_tot - de * n_tot + v
        out = -1j * (h @ rho - rho @ h)
        for low, num in zip(lowers, numbers):
            out += noise.gamma * (low @ rho @ low.conj().T
                                  - 0.5 * (num @ rho + rho @ num))
        return out

    out = [(float(pulse.times[0]), rho.copy())]
    for k in range(pulse.n_knots - 1):
        t0, t1 = float(pulse.times[k]), float(pulse.times[k + 1])
        n_steps = max(1, int(np.ceil(round((t1 - t0) / dt, 9))))
        h_step = (t1 - t0) / n_steps
        t = t0
        for _ in range(n_steps):
            k1 = rhs(t, rho)
            k2 = rhs(t + h_step / 2, rho + h_step / 2 * k1)
            k3 = rhs(t + h_step / 2, rho + h_step / 2 * k2)
            k4 = rhs(t + h_step, rho + h_step * k3)
            rho = rho + h_step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h_step
        out.append((t1, rho.copy()))
    return out
