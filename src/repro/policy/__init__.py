"""Initial-window decision policies (the zoo) behind one protocol.

The Riptide agent's poll/install machinery is policy-agnostic; this
package holds the decision step: the paper's EWMA learner, the static
CDN configurations measured by Rüth & Hohlfeld, percentile and
RTT-class learners, and a TCPTuner-style runtime-tunable policy.
``repro.experiments.tournament`` races them against each other.
"""
