from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,  # wall time per example varies too much on shared hosts
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
