package org.apache.spark

/** Waits until every queued listener event has been delivered. The
  * listener bus is private to Spark, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
