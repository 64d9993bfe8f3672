"""Unified telemetry: metrics registry, spans, exporters, run reports.

The package sits below every instrumented layer (sim, net, core, energy,
multicast, orchestrator) and imports none of them — subsystems hand it
plain values and duck-typed stats objects.
"""
