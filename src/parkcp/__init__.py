"""Cooperative positioning for vehicular networks with stationary-vehicle
anchors: scenario generation, GCPSO/EKF localizers, anchor lifecycle policies,
coverage analytics, and a paired-ensemble evaluation harness. Import names
from their modules (``parkcp.harness``, ...); the package root exports nothing."""
