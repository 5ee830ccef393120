"""The closed-form transfer model of Section II-B.

"For our model, we assume that the delay to put packets on the wire is
negligible ... the receiver does not delay sending ACKs, and the
connections experience no loss."  Under those assumptions a transfer of
``S`` bytes with initial window ``W`` completes in as many RTTs as there
are slow-start rounds (W, 2W, 4W, ...) needed to cover ``ceil(S/MSS)``
segments.  Figures 3, 4 and 6 are direct evaluations of this model.
"""
