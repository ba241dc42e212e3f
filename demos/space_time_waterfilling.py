"""Water-filling over space and time on ergodic Rayleigh channels.

A transmitter that knows each channel realization can water-fill per symbol,
but holding the power budget per symbol wastes the freedom to save energy for
good channel states. Choosing one water level that meets the budget only on
long-term average buys extra rate, most visibly at low SNR and in small
arrays. This script prints the rate curves behind that story.
"""

import numpy as np

from mimocap import naive_avg_rate, st_capacity, st_water_level, wishart_density

# --- single-antenna Rayleigh: capacity vs constant-power transmission -------

dens = wishart_density(1, 1)
print("SISO Rayleigh: space-time water-filling vs constant power")
print(f"{'SNR dB':>7} {'C (nats)':>10} {'const power':>12} {'gain':>7}")
for db in range(-10, 31, 5):
    g = 10 ** (db / 10)
    xi = st_water_level(dens, g)
    cap = st_capacity(dens, xi)
    const = dens.log1p_moment(g)
    print(f"{db:>7} {cap:>10.4f} {const:>12.4f} {cap / const:>7.3f}")

# --- 2x2: how much of the gain is time, how much is space -------------------

dens2 = wishart_density(2, 2)
print("\n2x2 Rayleigh: relative gain over uniform power Q = I/t")
print(f"{'SNR dB':>7} {'space-time':>11} {'space only':>11}")
for k, db in enumerate(range(-10, 31, 5)):
    g = 10 ** (db / 10)
    xi = st_water_level(dens2, g)
    st = st_capacity(dens2, xi)
    space = naive_avg_rate(dens2, g, samples=20_000, rng=k)
    uniform = 2 * dens2.log1p_moment(g / 2)
    print(f"{db:>7} {st / uniform:>11.4f} {space / uniform:>11.4f}")

# --- the on-off channel has a closed form ------------------------------------

from mimocap import onoff_density

m, p, budget = 4, 0.3, 2.0
d = onoff_density(m, p)
xi = st_water_level(d, budget)
cap = st_capacity(d, xi)
closed = m * p * np.log(1 + budget / (m * p))
print(f"\nParallel on-off (m={m}, p={p}, P={budget}):")
print(f"  solver capacity  {cap:.12f} nats")
print(f"  closed form      {closed:.12f} nats  (m p ln(1 + P/(m p)))")
