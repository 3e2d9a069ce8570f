// Known-bad fixture for the suppression audit, which covers every allow() in
// the corpus. Golden findings (expected.txt): line 8 names no known rule (a
// typo), line 12 has no reason, and line 15 silences nothing (stale). The
// typo leaves line 9's usleep unsuppressed.
namespace fixture {

void poll_once() {
  // lint: allow(blocking-in-hander) typo in the rule name
  ::usleep(10);
  // The reasonless allow still silences its finding; the audit flags the
  // missing reason.
  // lint: allow(blocking-in-handler)
  ::usleep(20);
  int quiet = 0;  // nothing to silence on this line
  // lint: allow(blocking-in-handler) stale: the blocking call moved away
  (void)quiet;
}

}  // namespace fixture
