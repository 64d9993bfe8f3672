"""Energy modelling for 802.11 radios.

Implements the measurement-based linear energy model of Feeney & Nilsson
(INFOCOM 2001), which the paper adopts (§3, "Energy Model"): every packet
send/receive costs a linear function of its size, and the radio additionally
draws a state-dependent power while transmitting, receiving, idling or
sleeping.  The paper's key constants — 900 mW idle versus 50 mW sleep — are
what make CoCoA's coordinated sleeping profitable.
"""
