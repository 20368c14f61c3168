"""Frozen artifacts: small runs of every sampler and one gain curve at two
seeds write files whose sha256 digests are pinned here.

A refactor that means to keep every stream must leave these digests as
they are.  A change that alters a stream on purpose updates them and
says so in CHANGES.md, as the ``FROZEN_*`` constants of ``test_rng.py``
are updated.
"""

from __future__ import annotations

import hashlib

from abcsmc import RunConfig, gain_curve, run_experiment

SEEDS = (1001, 7319)
CONFIGS = {
    "reject": dict(sampler="reject", n_prior=3000, epsilon_target=0.5, replicates=2),
    "mcmc": dict(sampler="mcmc", n_prior=2000, epsilon_target=0.5, mcmc_steps=300),
    # at prior_halfwidth 1 a share of the kernel moves leave the box and are deferred
    "naive-smc": dict(
        sampler="naive-smc", n=500, schedule=[2.0, 1.0, 0.5, 0.25],
        prior_halfwidth=1.0, replicates=2,
    ),
    "self-calibrated": dict(
        sampler="self-calibrated", n=500, epsilon_target=0.15, replicates=2
    ),
}
CURVE = dict(sampler="self-calibrated", n=300, epsilon_target=0.09, prior_halfwidth=1.0)

FROZEN_DIGESTS = {
    "reject/1001/particles_1.csv": "0e688b4f05c6fe6247290403fd0f25053e7f925f40ee0966dcfd36015d192ac7",
    "reject/1001/particles_2.csv": "5df031434772b2b6fd746d52124c1e3331a9d533db8731539705eeb0ed1d037c",
    "reject/1001/trace_1.json": "b7905c4f619fda39702896d83e2650ec95ea8c72522638961e481d514c069bad",
    "reject/1001/trace_2.json": "2ba0c28ef6f6a66a494c013669d972ed8a1ed56d14f86f8bbc0064d06c5e57bb",
    "mcmc/1001/particles_1.csv": "0f4cfce3b12207ddb5523841e3c9bce33a086d476025b05efaaef07f5b516978",
    "mcmc/1001/trace_1.json": "7f09518d1bae38a587af261da95b3d1d5977201720596ff0b1618f819cf4edca",
    "naive-smc/1001/particles_1.csv": "36c552690d5d2e5ba9f4a4f02b971501d7edba65ec50bc2b828c7e18e4cec4f5",
    "naive-smc/1001/particles_2.csv": "a6456b9d17513e7bec10d0bd2eeb59d5d576d90389c1192d7df979f60089813b",
    "naive-smc/1001/trace_1.json": "1b352869e24d629f3f9467fdff263251637310fbbf8031ba3a60fa6c24401fd9",
    "naive-smc/1001/trace_2.json": "53a52b83cdde0d7c09289444502700fcf7d8604325b661a7ef02abdca1a8ed47",
    "self-calibrated/1001/particles_1.csv": "16854fea8f6c5066586a4d8e90d5d191de72bdf19d6f89916aa663b46617318c",
    "self-calibrated/1001/particles_2.csv": "1e416c216ea6b1288052cdfb6267283dc9f3b9e061c053cb1ce94eddf89fed15",
    "self-calibrated/1001/trace_1.json": "d3300b250935176774ffb5d5b5cef0f383acb0671ef92f83424a045fc7f0143f",
    "self-calibrated/1001/trace_2.json": "2f0d0bff30771079214e22ee8e7c2e61c283f63ec4474a7ff087d75760485d2b",
    "gain-curve/1001/particles_1.csv": "f2426be0f040255e20caef985f30e6ff3ea5535c04442bb0afd0558918c42d2a",
    "gain-curve/1001/trace_1.json": "d53eec6b7e428a9574101fbe4db7bab35152548f00f36e9d241a3c321bc20b07",
    "gain-curve/1001/gain_by_iter.csv": "8a853593c1cdaf05eec9b82dd060fad77c4b172574212d1636b26e5df6948a0d",
    "reject/7319/particles_1.csv": "0388a9b78244484e5f1e60767659a9c388c5aac6d98c7a4004ba27f0a9939102",
    "reject/7319/particles_2.csv": "b3dab8dbe32c1aa735c8de42129b85f606e0258ffa5a68b4f4d9cfe843862c84",
    "reject/7319/trace_1.json": "bd6ffa48fe4e56ec96ff25b603f6e33274a0634b8040909a7813c3ca2c034d25",
    "reject/7319/trace_2.json": "c02982dc790a40fa11870dc63945f2ba9fcd9f1e11cf3140c02c7305d4f78b88",
    "mcmc/7319/particles_1.csv": "faa4c91c0e228477a1f0424f070984d03d64b557281e46a6cba768486d25ff83",
    "mcmc/7319/trace_1.json": "f88d362f05006d35ce426c607de4e1cebdae4b84bc071d9cbc52879bac360d14",
    "naive-smc/7319/particles_1.csv": "76f74377a4763c8588b6b9f51f42186d51b874925db4cf7cc1889d76818d92b8",
    "naive-smc/7319/particles_2.csv": "1a93c1b7a618eecafb71209aec5e84ba3c5578625b45f4523164d564463ff03f",
    "naive-smc/7319/trace_1.json": "4028a30996459cb16d6d6d97cdb65b83daca7908c36224b570a4cc23fae0d944",
    "naive-smc/7319/trace_2.json": "b9d6581904d239b67821cd509248ebec7c2eed5d1718f443ef3c4f07c2560e9d",
    "self-calibrated/7319/particles_1.csv": "24e758be57fb033211c8eb0d13cdf9b1e7ec4dde019b60d9db09951f9aef760a",
    "self-calibrated/7319/particles_2.csv": "48fd64955a1a2af669f93f496e1092cc20e9363366f34ae659c0cf56d95209f0",
    "self-calibrated/7319/trace_1.json": "ea0e0fc302e142f75fe4e0a37e1f74a2cc8506c09a95a40869a63c208d1a08b9",
    "self-calibrated/7319/trace_2.json": "82c0e2ecf482e9275af1525a61aef1c8a813d7ad9f14820bd07918a82c6e58d1",
    "gain-curve/7319/particles_1.csv": "4ef81336a8ae9c078dad2a82bcd7e5732867b75a84b4cef571119e83057564b0",
    "gain-curve/7319/trace_1.json": "471d764425a866b0f352572e2f0fc2e8be06a2a1ca971934b9112f0270e1621e",
    "gain-curve/7319/gain_by_iter.csv": "a412d5b4e5c9201c3d849edc27b7d3159c56578636b5bf137cc4f24925a5e1b4",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(tmp_path_factory) -> dict[str, str]:
    """Run every config at both seeds and digest the files it writes."""
    out = {}
    for seed in SEEDS:
        for name, kw in CONFIGS.items():
            run_dir = tmp_path_factory.mktemp(f"{name}-{seed}")
            run_experiment(RunConfig(seed=seed, **kw), str(run_dir))
            for path in sorted(run_dir.iterdir()):
                if path.name.startswith(("particles_", "trace_")):
                    out[f"{name}/{seed}/{path.name}"] = _digest(path)
        run_dir = tmp_path_factory.mktemp(f"gain-curve-{seed}")
        gain_curve(RunConfig(seed=seed, **CURVE), str(run_dir))
        for name in ("particles_1.csv", "trace_1.json", "gain_by_iter.csv"):
            out[f"gain-curve/{seed}/{name}"] = _digest(run_dir / name)
    return out


def changed_digests(digests: dict[str, str]) -> list[str]:
    """The pinned files whose digest differs or which were not written."""
    return sorted(k for k in FROZEN_DIGESTS if digests.get(k) != FROZEN_DIGESTS[k])


def test_artifact_digests_frozen(tmp_path_factory):
    digests = artifact_digests(tmp_path_factory)
    assert changed_digests(digests) == []
    assert sorted(digests) == sorted(FROZEN_DIGESTS)
