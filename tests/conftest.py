import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract: tests own
    their session; library code never calls ray.init)."""
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import p2pddsketch_ray
    p2pddsketch_ray.configure_for_cluster(4)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(params=["one_task", "sort"])
def exchange_path(request, monkeypatch):
    """Run a test on each path of ``stages.exchange.keyed_merge``: the
    one-task merge that test-sized partials take, and the sort shuffle
    that partials over its bound take (keyless merges take one task)."""
    from p2pddsketch_ray.stages import exchange
    if request.param == "sort":
        monkeypatch.setattr(exchange, "SMALL_BYTES", -1)
    return request.param
