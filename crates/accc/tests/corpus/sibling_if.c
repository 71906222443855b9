/* Both branches of an `if` declare a local of the same name. */
void sibling_if(int n, float *x, float *y) {
#pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])
  for (int i = 0; i < n; i++) {
    if (x[i] > 0.5f) {
      float t = x[i] * 2.0f;
      y[i] = t + 1.0f;
    } else {
      float t = x[i] * 0.5f;
      y[i] = t - 1.0f;
    }
  }
}
