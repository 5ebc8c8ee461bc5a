"""dcflex: co-optimized data center scheduling and regulation bidding.

Day-ahead joint optimization of workload placement across geo-distributed
data centers (a space-time network) and frequency-regulation capacity
commitments with probabilistic deliverability guarantees, plus an
intra-slot delivery simulator that replays regulation signals against a
committed solution.
"""

__version__ = "0.1.0"
