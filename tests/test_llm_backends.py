"""Tests for prompts, reply parsing and the oracle/degraded backends."""

from repro.llm import (
    DegradedBackend, GPT35_PROFILE, OracleBackend, Prompt, PromptLibrary,
    RecordingBackend, ReplayBackend, parse_reply, slice_case_block,
)
from repro.llm.analysis import (
    analyze_struct_text, find_delegation_target, find_switch_cases,
    infer_arg_struct, infer_device_path, uses_ioc_nr_rewrite,
)
import pytest

from repro.errors import LLMProtocolError


def test_parse_reply_sections():
    reply = parse_reply('''
## DEVICE
- PATH: /dev/mapper/control
## IDENTIFIERS
- IDENT: DM_VERSION | HANDLER: dm_version | SYSCALL: ioctl
## TYPEDEF
dm_ioctl {
\tversion array[int32, 3]
}
## UNKNOWN
- FUNC: lookup_ioctl | USAGE: fn = lookup_ioctl(cmd);
''')
    assert reply.device_path == "/dev/mapper/control"
    assert reply.identifiers[0]["IDENT"] == "DM_VERSION"
    assert reply.typedefs[0][0] == "dm_ioctl"
    assert reply.unknowns[0].name == "lookup_ioctl"


def test_infer_device_path_prefers_nodename():
    text = 'static struct miscdevice m = {\n\t.name = "device-mapper",\n\t.nodename = "mapper/control",\n};'
    finding = infer_device_path(text)
    assert finding.path == "/dev/mapper/control"
    assert finding.source == "nodename"


def test_infer_device_path_device_create_template():
    text = 'device_create(cls, NULL, devt, NULL, "loop%d", minor);'
    assert infer_device_path(text).path == "/dev/loop#"


def test_switch_and_rewrite_detection():
    code = "unsigned int nr = _IOC_NR(cmd);\nswitch (nr) {\ncase DM_VERSION_CMD:\n\treturn do_version(file, argp);\n}"
    assert uses_ioc_nr_rewrite(code)
    assert find_switch_cases(code) == [("DM_VERSION_CMD", "do_version")]


def test_delegation_detection():
    code = "\treturn ctl_ioctl(file, command, u);\n"
    assert find_delegation_target(code) == "ctl_ioctl"


def test_infer_arg_struct_directions():
    body_in = "struct foo params;\nif (copy_from_user(&params, argp, sizeof(struct foo)))\n\treturn -EFAULT;"
    assert infer_arg_struct(body_in) == ("foo", "in")
    body_inout = body_in + "\nif (copy_to_user(argp, &params, sizeof(struct foo)))\n\treturn -EFAULT;"
    assert infer_arg_struct(body_inout) == ("foo", "inout")


def test_analyze_struct_text_recovers_len_and_out():
    text = '''
struct foo_args {
\t__u32 nr_entries;\t/* number of entries that follow */
\t__u32 id;\t/* written by the kernel */
\t__u64 entries[];
};
'''
    fields, missing = analyze_struct_text("foo_args", text)
    assert not missing
    by_name = {f.name: f for f in fields}
    assert by_name["nr_entries"].syz_type.startswith("len[entries")
    assert by_name["id"].out
    assert by_name["entries"].syz_type.startswith("array[")


def test_oracle_identifier_reply_on_real_prompt(extractor):
    prompts = PromptLibrary()
    backend = OracleBackend()
    registration = extractor.handler("snapshot_fops").initializer_text + "\n" + "\n".join(
        extractor.handler("snapshot_fops").usage_snippets
    )
    code = extractor.extract_code("snapshot_ioctl")
    reply = parse_reply(backend.query(prompts.identifier_prompt(
        "snapshot_fops", kind="driver", registration=registration, code=code)).text)
    # The registered handler delegates, so the first step must mark it unknown.
    assert reply.unknowns and reply.unknowns[0].kind == "func"


def test_oracle_usage_accounting():
    backend = OracleBackend()
    backend.query(Prompt(kind="identifier", subject="x", text="## Registration\nnothing\n"))
    assert backend.usage.queries == 1
    assert backend.usage.input_tokens > 0


def test_degraded_profile_is_weaker():
    assert GPT35_PROFILE.miss_op_rate > 0.1
    assert DegradedBackend.gpt35().profile.name == "gpt-3.5"
    assert DegradedBackend.gpt4o().profile.miss_op_rate < 0.1


def test_slice_case_block():
    code = "switch (optname) {\ncase OPT_A:\n\tdo_a();\n\tbreak;\ncase OPT_B:\n\tdo_b();\n\tbreak;\ndefault:\n\treturn -EINVAL;\n}"
    block = slice_case_block(code, "OPT_A")
    assert "do_a" in block and "do_b" not in block


def test_replay_and_recording_backends():
    replay = ReplayBackend({"identifier": ["## IDENTIFIERS\n- IDENT: X | SYSCALL: ioctl\n"]})
    recorder = RecordingBackend(replay)
    completion = recorder.query(Prompt(kind="identifier", subject="s", text="hello"))
    assert "IDENT: X" in completion.text
    assert len(recorder.exchanges) == 1
    with pytest.raises(LLMProtocolError):
        replay.query(Prompt(kind="type", subject="s", text="hello"))


def test_replay_replies_are_keyed_by_prompt_content():
    """Replies depend on prompt content + per-prompt occurrence, never on
    global arrival order — the property that makes the backend engine-safe."""
    from repro.llm import prompt_key

    first = Prompt(kind="identifier", subject="a", text="one")
    second = Prompt(kind="identifier", subject="b", text="two")
    assert prompt_key(first) != prompt_key(second)
    assert prompt_key(first) == prompt_key(Prompt(kind="identifier", subject="a", text="one"))

    replay = ReplayBackend({"identifier": ["reply-0", "reply-1"]})
    # Interleaving distinct prompts does not steal each other's replies:
    # each distinct prompt starts its own sequence.
    assert replay.query(first).text == "reply-0"
    assert replay.query(second).text == "reply-0"
    assert replay.query(first).text == "reply-1"
    assert replay.query(second).text == "reply-1"
    # The last reply repeats once a prompt's sequence is exhausted.
    assert replay.query(first).text == "reply-1"


def test_replay_exact_prompt_scripts_win_over_kind_replies():
    probe = Prompt(kind="identifier", subject="x", text="special")
    replay = ReplayBackend({"identifier": ["generic"]})
    replay.script(probe, "scripted-0", "scripted-1")
    assert replay.query(probe).text == "scripted-0"
    assert replay.query(probe).text == "scripted-1"
    assert replay.query(Prompt(kind="identifier", subject="x", text="plain")).text == "generic"


def test_replay_is_schedule_independent_under_threads():
    import threading

    replay = ReplayBackend(default="fallback")
    prompts = [Prompt(kind="identifier", subject=f"s{i}", text=f"t{i}") for i in range(6)]
    for i, prompt in enumerate(prompts):
        replay.script(prompt, f"reply-{i}")

    answers: dict[int, str] = {}
    barrier = threading.Barrier(6)

    def worker(index: int) -> None:
        barrier.wait()
        answers[index] = replay.query(prompts[index]).text

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert answers == {i: f"reply-{i}" for i in range(6)}
