// Fixture: an encode-side precondition in decoder territory, suppressed with
// a reason. Expected findings: none.
namespace fixture {

void put_bits(unsigned v, unsigned width) {
  // lint: allow(wire-assert) fixture: encode-side precondition on local IR
  FLEXRIC_ASSERT(v < (1u << width), "value exceeds its width");
}

}  // namespace fixture
