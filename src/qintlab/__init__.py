"""qintlab: deterministic, Monte Carlo, coin-restricted, and quantum
integration of Holder-class functions on a simulated quantum computer."""
